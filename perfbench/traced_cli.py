"""Traced CLI run: ``python traced_cli.py <trace.json> <mopkit cli arguments>``.

Installs the tracing wrappers in this process, runs ``mopkit.cli.main``
and writes the per-layer figures to <trace.json>.  Used only by traced runs
of the ``cli`` workload; untimed runs call ``python -m mopkit.cli``.
"""

import json
import sys
from collections import defaultdict

import tracing
from mopkit import cli

if __name__ == "__main__":
    layer = defaultdict(float)
    tracing.install(lambda: layer, public=True)
    code = cli.main(sys.argv[2:])
    with open(sys.argv[1], "w") as fh:
        json.dump(layer, fh)
    sys.exit(code)
