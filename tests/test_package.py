"""The package holds its modules; names are imported from the module that
defines them."""

import importlib
import json
import os
import subprocess
import sys
import types

import pytest

import repcheck

# every program module, in sorted order; _record holds the value-record base
MODULES = ("_record", "characters", "classify", "cyclo", "groups", "matrices", "quantum", "verify")


def test_the_classify_module_is_not_shadowed_by_its_function():
    import repcheck.classify

    assert isinstance(repcheck.classify, types.ModuleType)
    from repcheck import classify

    assert classify is sys.modules["repcheck.classify"]
    assert classify.family_by_name("D4_125").name == "D4_125"


def test_every_public_attribute_of_the_package_is_a_module():
    for m in MODULES:
        importlib.import_module(f"repcheck.{m}")
    public = {name: value for name, value in vars(repcheck).items() if not name.startswith("_")}
    assert set(MODULES) <= set(vars(repcheck))
    assert all(isinstance(value, types.ModuleType) for value in public.values())
    assert isinstance(repcheck.__version__, str)


def _loaded_after(code: str) -> set:
    """The modules a fresh interpreter holds after running code."""
    code += "; import json, sys; print(json.dumps(sorted(sys.modules)))"
    src = os.path.dirname(os.path.dirname(repcheck.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True).stdout
    return set(json.loads(out))


def test_importing_the_package_loads_no_module():
    loaded = _loaded_after("import repcheck")
    assert {n for n in loaded if n.split(".")[0] == "repcheck"} == {"repcheck"}


# what each command loads: the table commands load neither the simulators
# nor the battery, nor dataclasses (which quantum imports with inspect)
_TABLES = {"repcheck", "repcheck.cli", "repcheck._record", "repcheck.cyclo", "repcheck.groups",
           "repcheck.characters", "repcheck.classify"}
_SIMULATORS = _TABLES | {"repcheck.matrices", "repcheck.quantum"}


@pytest.mark.parametrize("argv,program", [
    (["classify", "--json"], _TABLES),
    (["show-group", "D4"], _TABLES),
    (["show-table", "D4", "--json"], _TABLES),
    (["simulate-teleport"], _SIMULATORS),
    (["simulate-swap", "--rounds", "2"], _SIMULATORS),
    (["verify-all"], _SIMULATORS | {"repcheck.verify"}),
], ids=["classify", "show-group", "show-table", "simulate-teleport", "simulate-swap",
        "verify-all"])
def test_each_command_loads_only_what_it_runs(tmp_path, argv, program):
    out = tmp_path / "out"
    loaded = _loaded_after(
        f"from repcheck import cli; assert cli.main({argv + ['--out', str(out)]!r}) == 0"
    )
    assert out.read_text()
    assert {n for n in loaded if n.split(".")[0] == "repcheck"} == program
    if program == _TABLES:
        assert "dataclasses" not in loaded


# the memos that no one-shot command reads again: each serves only in-process
# repeats, a warm battery or a second cli.main, as in the benchmark's ops
WARM_ONLY = {"characters.conj_sweep", "quantum._tabulated", "quantum._conj_character_of", "cli._parser"}

_MEMO_HITS = """
import json, sys
from repcheck import cli
assert cli.main(sys.argv[1:]) == 0
hits = {}
for name, mod in list(sys.modules.items()):
    if name.startswith("repcheck."):
        for attr, obj in vars(mod).items():
            if hasattr(obj, "cache_info") and obj.__module__ == name:
                hits[name[len("repcheck."):] + "." + attr] = obj.cache_info().hits
print(json.dumps(hits))
"""


def test_every_memo_is_read_again_by_a_one_shot_command_or_is_warm_only(tmp_path):
    """Each lru_cache of the package hits in a fresh verify-all, classify or
    simulate-swap process, or is one of WARM_ONLY, which hit in none."""
    memos = set()
    for m in MODULES + ("cli",):
        mod = importlib.import_module(f"repcheck.{m}")
        memos |= {f"{m}.{attr}" for attr, obj in vars(mod).items()
                  if hasattr(obj, "cache_info") and obj.__module__ == mod.__name__}
    src = os.path.dirname(os.path.dirname(repcheck.__file__))
    hit = set()
    for argv in (["verify-all"], ["classify", "--json"], ["simulate-swap", "--rounds", "1000", "--seed", "7"]):
        out = subprocess.run([sys.executable, "-c", _MEMO_HITS, *argv, "--out", str(tmp_path / "out")],
                             capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
                             check=True).stdout
        hit |= {memo for memo, hits in json.loads(out).items() if hits}
    assert memos - hit == WARM_ONLY
