import importlib
import pkgutil
import re
from pathlib import Path

import secondlook

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert namespace["outcome"].polarized


def test_readme_module_names_resolve():
    # Every backticked `module.name` whose module is one of the package's
    # names an attribute of that module, so a deleted name cannot linger.
    modules = {info.name for info in pkgutil.iter_modules(secondlook.__path__)}
    names = [
        (module, name)
        for module, name in re.findall(r"`(\w+)\.(\w+)`", README.read_text(encoding="utf-8"))
        if module in modules
    ]
    assert names
    for module, name in names:
        assert hasattr(importlib.import_module(f"secondlook.{module}"), name), f"{module}.{name}"
