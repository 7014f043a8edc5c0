"""Run the cagewarp CLI in a fresh interpreter, recording its import time.

    python3 launch.py IMPORT_SECONDS_FILE [cagewarp CLI arguments...]
"""

import sys
import time

started = time.perf_counter()
from cagewarp import cli  # noqa: E402

with open(sys.argv[1], "w", encoding="ascii") as stream:
    stream.write(repr(time.perf_counter() - started))
sys.exit(cli.main(sys.argv[2:]))
