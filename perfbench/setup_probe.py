"""One cold set-up of a benchmark workload, in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload>

Times the import of sphere_mt (with numpy and scipy), the workload's
grids and the first call of each transform size it uses, which builds
the cached Legendre and trig tables.  Prints one JSON line:
{"setup_s": <total seconds>, "first_call": {"<size>_L<L>": <seconds>}}.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports numpy, scipy and sphere_mt)


def main() -> int:
    _, first_call = workloads.warm(sys.argv[1])
    print(json.dumps({"setup_s": time.perf_counter() - T0,
                      "first_call": first_call}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
