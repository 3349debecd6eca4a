"""Each CLI command loads only the `cumalg` modules it runs, and the lazy
package namespace gives every public name the object its home module
defines.  Module sets are read in a fresh interpreter, since this one has
loaded every layer."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cumalg as cm
from cumalg import algebra, coalgebra, morphisms, probability

from conftest import E2_DOC, E2_MAP_DOC, k2_doc

SRC = str(Path(cm.__file__).resolve().parents[1])
# runs one CLI command, then prints its exit code and the cumalg modules loaded
LOADED = str(Path(__file__).resolve().parents[1] / "tools" / "loaded.py")

CUMULANTS = ["algebra", "cli", "coalgebra", "cumulant", "probability"]
LIFTS = ["algebra", "cli", "coalgebra", "cumulant", "morphisms", "tables"]
DEFECTS = ["algebra", "cli", "coalgebra", "cumulant", "tables"]
TRANSFERS = ["algebra", "cli", "coalgebra", "cumulant", "linalg", "morphisms", "transfer"]
RETRACTS = ["algebra", "cli", "coalgebra", "morphisms", "transfer"]

COMMANDS = {
    "cumulants": (["cumulants"], "moments", {"moments": ["1/2", "1/3", "1/5"]}, CUMULANTS),
    "lift": (["lift", "--weight-cap", "3"], "algebra", E2_DOC, LIFTS),
    "invert": (["invert", "--weight-cap", "3"], "algebra", E2_DOC, LIFTS),
    "defects-hom": (["defects", "--kind", "hom"], "map", E2_MAP_DOC, DEFECTS),
    "defects-der": (["defects", "--kind", "der", "--weight-cap", "3"], "map", E2_MAP_DOC,
                    DEFECTS),
    "transfer": (["transfer"], "transfer", k2_doc(), TRANSFERS),
    "validate-retract": (["validate"], "retract", k2_doc()["retract"], RETRACTS),
    "validate-algebra": (["validate"], "algebra", E2_DOC, ["algebra", "cli"]),
}


def fresh(*args):
    """The last stdout line of `python3 ARGS` in a fresh interpreter, as JSON."""
    proc = subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("argv, role, doc, modules", COMMANDS.values(), ids=COMMANDS.keys())
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, role, doc, modules):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = argv + ["--input", f"{role}={path}", "--output", str(tmp_path / "report.json")]
    code, loaded = fresh(LOADED, *argv)
    assert code == 0
    assert loaded == [f"cumalg.{name}" for name in modules]


@pytest.mark.parametrize("command", COMMANDS)
def test_a_cli_process_compiles_no_module_twice(tmp_path, command):
    """`python -m cumalg.cli` runs cli.py as `__main__`, so an import of
    `cumalg.cli` (from `cumalg.tables`, say) would compile it a second time.
    The import log of `-X importtime` lists each module a process imports;
    it holds neither `cumalg.cli` nor `cumalg.oracles`, nor the command-line
    parser `argparse` and the `gettext` and `locale` it brings."""
    argv, role, doc, modules = COMMANDS[command]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = argv + ["--input", f"{role}={path}", "--output", str(tmp_path / "report.json")]
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "cumalg.cli", *argv],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert {f"cumalg.{name}" for name in modules if name != "cli"} <= imported
    assert not {"cumalg.cli", "cumalg.oracles", "argparse", "gettext", "locale"} & imported


def test_importing_the_package_loads_no_layer_module():
    script = "import json, sys, cumalg\nprint(json.dumps(sorted(sys.modules)))"
    assert [m for m in fresh("-c", script) if m.startswith("cumalg")] == ["cumalg"]


# for each name in __all__, read in a fresh interpreter: the module that
# defines its object (None for a plain value) and whether that module's
# attribute of the name is the object itself
HOMES = """
import json, sys, cumalg
rows = []
for name in cumalg.__all__:
    value = getattr(cumalg, name)
    home = getattr(value, "__module__", None)
    rows.append([name, home, home is not None and getattr(sys.modules[home], name) is value])
print(json.dumps(rows))
"""


def test_every_public_name_is_the_object_its_home_module_defines():
    rows = fresh("-c", HOMES)
    assert [name for name, _, _ in rows] == cm.__all__
    plain = []
    for name, home, same in rows:
        if home is None:
            plain.append(name)
        else:
            assert home.startswith("cumalg.") and same, name
    assert plain == ["DEFAULT_WEIGHT_CAP"]
    assert cm.DEFAULT_WEIGHT_CAP is algebra.DEFAULT_WEIGHT_CAP is coalgebra.DEFAULT_WEIGHT_CAP
    assert morphisms.TaylorFamily is coalgebra.TaylorFamily is cm.TaylorFamily
    assert set(cm.__all__) <= set(dir(cm))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cm.no_such_name
    assert not hasattr(cm, "cli_run")
    with pytest.raises(ImportError):
        from cumalg import no_such_name  # noqa: F401


def test_a_name_is_what_its_home_module_holds_now(monkeypatch):
    """Nothing is bound in the package: a name first read while its home
    module is patched is the original again once the patch is undone."""
    original = probability.parse_moments
    monkeypatch.setattr(probability, "parse_moments", "patched")
    assert cm.parse_moments == "patched"
    monkeypatch.undo()
    assert cm.parse_moments is original
    assert "parse_moments" not in vars(cm)
