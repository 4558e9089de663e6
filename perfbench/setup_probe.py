"""Time one cold set-up in this fresh process and print the seconds.

    python3 perfbench/setup_probe.py <src dir> <preset> <weights.bsrw>

Covers what a user pays before the first enhancement: importing the
package, load_config, load_weights of a .bsrw file and build.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402

sys.path.insert(0, sys.argv[1])
from bsrnnlite import configio, model, weights_io  # noqa: E402

config = configio.load_config(sys.argv[2])
arrays, _meta = weights_io.load_weights(sys.argv[3])
model.build(config, arrays)
print(f"{time.perf_counter() - T0:.6f}")
