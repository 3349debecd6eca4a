#!/usr/bin/env python3
"""Run one CLI command and list the `cumalg` modules it loaded.

    python3 tools/loaded.py COMMAND [OPTIONS...]

Runs `cumalg.cli.run` on the arguments in this interpreter, then prints one
JSON line: the exit code and the sorted names of the loaded `cumalg.*`
modules.  `tools/startup.py` reports these sets and
`tests/test_lazy_imports.py` asserts them.
"""
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cumalg import cli  # noqa: E402

code = cli.run(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("cumalg."))]))
