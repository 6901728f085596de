"""One set-up of a fresh process, timed by run.py from outside.

Imports the CLI, runs each warm-up command line listed in the JSON file
given as the only argument (one per job kind), then prints ``ready``.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from contractum.cli import dispatch  # noqa: E402

for argv in json.loads(Path(sys.argv[1]).read_text()):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        dispatch(argv)
print("ready", flush=True)
