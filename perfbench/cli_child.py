"""Traced stand-in for ``python -m boundarylab.cli`` in the cli-cold workload.

Times ``import boundarylab.cli`` as a ``setup.import`` span, installs the
span wrappers, runs ``cli.main`` with the given arguments and writes the
spans as JSON rows ``[name, start, end, parent, outer]`` to the path in
``PERFBENCH_SPANS``.  The exit code is the CLI's.
"""

import json
import os
import sys
import time

t0 = time.perf_counter()
import boundarylab.cli  # noqa: E402

t1 = time.perf_counter()
import tracer  # noqa: E402  (this file's directory is sys.path[0])

tr = tracer.Tracer()
tr.add("setup.import", t0, t1, -1)
tracer.instrument(tr)
code = boundarylab.cli.main(sys.argv[1:])
sys.stdout.flush()
rows = [[tr.names[n], s, e, p, o] for n, s, e, p, o in
        zip(tr.name_id, tr.start, tr.end, tr.parent, tr.outer)]
with open(os.environ["PERFBENCH_SPANS"], "w") as fh:
    json.dump(rows, fh)
sys.exit(code)
