"""The package holds its modules; names are imported from the module that
defines them."""

import json
import os
import subprocess
import sys
import types

import repcheck

# every program module, in sorted order; _record holds the value-record base
MODULES = ("_record", "characters", "classify", "cyclo", "groups", "matrices", "quantum", "verify")


def test_the_classify_module_is_not_shadowed_by_its_function():
    assert isinstance(repcheck.classify, types.ModuleType)
    from repcheck import classify

    assert classify is sys.modules["repcheck.classify"]
    assert classify.family_by_name("D4_125").name == "D4_125"


def test_every_public_attribute_of_the_package_is_a_module():
    public = {name: value for name, value in vars(repcheck).items() if not name.startswith("_")}
    assert set(MODULES) <= set(vars(repcheck))
    assert all(isinstance(value, types.ModuleType) for value in public.values())
    assert isinstance(repcheck.__version__, str)


def test_importing_the_package_loads_the_program_but_not_the_cli():
    """The benchmark's setup clock stops after `import repcheck`, so the
    import must load every module the program runs, as it always has."""
    code = ("import json, sys, repcheck; "
            "print(json.dumps(sorted(n for n in sys.modules if n.split('.')[0] == 'repcheck')))")
    src = os.path.dirname(os.path.dirname(repcheck.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True).stdout
    assert json.loads(out) == ["repcheck"] + [f"repcheck.{m}" for m in MODULES]
