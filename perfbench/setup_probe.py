"""Set-up time of one fresh process: import rumourlens, resolve the
workload's configuration and build the featurizer (lexicon, concept
table, word lists, emotion lexicon), as every CLI invocation does.

    python3 perfbench/setup_probe.py CONFIG_FILE

Prints the elapsed seconds, then the time of the reference loop run
right after in the same process (see refloop.py).
"""

import sys
import time

start = time.perf_counter()

from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rumourlens import pipeline  # noqa: E402
from rumourlens.config import build_config, parse_config_file  # noqa: E402

if __name__ == "__main__":
    cfg = build_config(parse_config_file(sys.argv[1]), env={})
    pipeline.make_featurizer(cfg)
    elapsed = time.perf_counter() - start
    import refloop  # after the clock stops: set-up does not pay for it

    print(repr(elapsed), repr(refloop.reference_seconds()))
