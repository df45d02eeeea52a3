"""Run one ckinv command as ``python -m ckinv.cli`` would, timing its parts.

    PYTHONPATH=src python3 bench/cli_probe.py invariants matrix.txt

The command's output goes to stdout unchanged and its exit code is this
process's exit code.  The last line on stderr is JSON with ``import_s``
(``import ckinv.cli``) and ``command_s`` (parsing, computing and rendering
in ``main``), both timed inside the process.
"""

from time import perf_counter

t0 = perf_counter()
import ckinv.cli  # noqa: E402

t1 = perf_counter()
rc = ckinv.cli.main()

import json  # noqa: E402
import sys  # noqa: E402

sys.stdout.flush()
t2 = perf_counter()
print(json.dumps({"import_s": t1 - t0, "command_s": t2 - t1}),
      file=sys.stderr)
sys.exit(rc)
