"""Time one set-up in a fresh interpreter: import, build, validate, zero_data.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints three times in seconds: importing numpy and scipy, importing the
package, and building, validating and ``zero_data``-ing the seed's
families.  Their sum is one sample of ``setup_s``; run.py starts several of
these per run and reports the median.
"""

import sys
import time

if __name__ == "__main__":
    t0 = time.perf_counter()
    import numpy            # noqa: F401  (the package imports both)
    import scipy.integrate  # noqa: F401
    third_party_s = time.perf_counter() - t0
    from run import _import_and_prepare
    _, _, import_s, prepare_s = _import_and_prepare(sys.argv[1], int(sys.argv[2]))
    print(third_party_s, import_s, prepare_s)
