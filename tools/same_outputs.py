"""Bit comparison of the ``zeros`` and ``ensemble`` workload outputs in two checkouts.

    python3 tools/same_outputs.py PARENT_DIR CHANGE_DIR [--seed S]

Runs, once in each checkout, on the checkout's own ``src`` and ``perfbench``
with single-threaded BLAS: the warm-up round of ``perfbench/wl_zeros.py``,
whose ``_signature`` holds the bytes of every type II polynomial, its roots
and the type I polynomials, and the first round of
``perfbench/wl_ensemble.py``: per target the sampler batch at that round's
seeds (``configurations``, ``extended``, ``acceptance_rate``, ``ess`` and
``step_sizes``), and the two kernels at the workload's evaluation points
(values and trace).  Each output is reduced to a SHA-256 digest.  Prints every output
whose digest differs or that only one side has, and exits 1 on any
difference.  The companion of ``tools/cli_bodies.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path


def _sha(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else repr(data).encode()).hexdigest()


def digests(checkout: Path, seed: int) -> dict:
    """{output: digest} of this process's ``mopkit`` with ``checkout``'s perfbench."""
    sys.path.insert(0, str(checkout / "perfbench"))
    import harness
    import wl_ensemble
    import wl_zeros

    import mopkit

    sess = harness.Session()
    sess.start_round()
    zeros = wl_zeros.Zeros(seed)
    zeros.round(sess)
    out = {f"zeros {name} {parts}": _sha(sig)
           for (name, parts), sig in wl_zeros._signature(zeros.reference).items()}
    batches, sample = [], mopkit.sample_mcmc

    def recorded(*args):  # a failed call leaves None in its target's place
        batches.append(None)
        batches[-1] = sample(*args)
        return batches[-1]

    mopkit.sample_mcmc = recorded
    ensemble = wl_ensemble.Ensemble(seed)
    ensemble.round(sess)
    mopkit.sample_mcmc = sample
    for name, b in zip(wl_ensemble.TARGETS, batches):
        out[f"ensemble sampler {name}"] = _sha(b"failed" if b is None else (
            b.configurations.tobytes() + (b"" if b.extended is None else b.extended.tobytes())
            + repr((b.configurations.shape, b.acceptance_rate, b.ess, b.step_sizes)).encode()))
    for name, vals, trace, _, tag in ensemble.reference or ():
        out[f"ensemble kernel {name} ({tag})"] = _sha(vals.tobytes() + repr(trace).encode())
    out["failed operations"] = _sha(sess.failures)
    return out


def snapshot(checkout: Path, seed: int) -> dict:
    """``digests`` of ``checkout``, computed in a subprocess on its own ``src``."""
    from cli_bodies import THREAD_VARS

    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), **{v: "1" for v in THREAD_VARS})
    run = subprocess.run([sys.executable, __file__, "--digests", str(checkout), str(seed)],
                         cwd=checkout, env=env, capture_output=True, text=True, check=True)
    return json.loads(run.stdout)


def differences(parent: dict, change: dict) -> list:
    """(output, reason) for every output whose digest differs or is on one side only."""
    out = []
    for key in sorted(set(parent) | set(change)):
        if key not in parent or key not in change:
            out.append((key, f"only in the {'parent' if key in parent else 'change'}"))
        elif parent[key] != change[key]:
            out.append((key, "differs"))
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--digests"]:
        print(json.dumps(digests(Path(argv[1]), int(argv[2]))))
        return 0
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--seed", type=int, default=11, help="seed of both workloads' inputs")
    args = ap.parse_args(argv)
    sides = [snapshot(root.resolve(), args.seed) for root in (args.parent, args.change)]
    found = differences(*sides)
    for key, reason in found:
        print(f"{key}: {reason}")
    print(f"{len(found)} of {len(set(sides[0]) | set(sides[1]))} outputs differ")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
