"""mpmath moment rows: one tanh-sinh pass per weight, bit-identical to quad."""

import mpmath
import pytest

import mopkit as mk
from mopkit import highprec
from mopkit.weights import Weight

#: weight, largest power k, working precisions; the exp_poly Nikishin ratio
#: nests a quadrature in every value, so it runs at small k and dps
CASES = {
    "jacobi_half_half": (lambda: Weight.from_spec(mk.WeightSpec.jacobi(0.0, 1.0, 0.5, 0.5)),
                         12, (30, 45)),
    "exp_poly": (lambda: Weight.from_spec(mk.WeightSpec.exp_poly(1.0, 2.0, [0.0, 1.0, 0.5])),
                 12, (30, 45)),
    "nikishin_constant": (lambda: mk.build_nikishin(
        mk.WeightSpec.constant(1.0, 2.0), [mk.WeightSpec.constant(-1.0, 0.0)]).weights[1],
        12, (30, 45)),
    "nikishin_exp_poly": (lambda: mk.build_nikishin(
        mk.WeightSpec.exp_poly(1.0, 2.0, [0.0, 1.0]),
        [mk.WeightSpec.exp_poly(-1.0, 0.0, [0.0, 0.5])]).weights[1], 2, (15, 20)),
}


@pytest.mark.parametrize("name,dps", [(name, dps) for name, (_, _, pair) in sorted(CASES.items())
                                      for dps in pair])
def test_moment_rows_match_quad_bit_for_bit(name, dps):
    make, k_max, _ = CASES[name]
    w = make()
    with mpmath.mp.workdps(dps):
        row = highprec.moment_rows(mk.WeightSystem.general([w]), k_max)[0]
        fn = w.mp_evaluator()
        a, b = mpmath.mpf(w.support.a), mpmath.mpf(w.support.b)
        ref = [mpmath.quad(lambda x, k=k: x ** k * fn(x), [a, b]) for k in range(k_max + 1)]
    assert [v._mpf_ for v in row] == [v._mpf_ for v in ref]


def test_evaluator_called_once_per_node(monkeypatch):
    seen = []
    plain = Weight.mp_evaluator

    def counted(self):
        fn = plain(self)

        def wrapped(x):
            seen.append(x)
            return fn(x)

        return wrapped

    monkeypatch.setattr(Weight, "mp_evaluator", counted)
    w = Weight.from_spec(mk.WeightSpec.exp_poly(1.0, 2.0, [0.0, 1.0, 0.5]))
    with mpmath.mp.workdps(30):
        highprec.moment_rows(mk.WeightSystem.general([w]), 10)
    assert seen and len(seen) == len(set(seen))
