import ast
import pathlib
import sys

import msopt


def test_src_imports_only_numpy_and_the_standard_library():
    # scipy is a test extra: no module of the package may need it, or any
    # other third-party package, at run time
    imports = set()
    for path in pathlib.Path(msopt.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imports |= {(path.name, alias.name.partition(".")[0]) for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imports.add((path.name, node.module.partition(".")[0]))
    allowed = {"numpy", "msopt"} | set(sys.stdlib_module_names)
    assert {"numpy", "argparse", "msopt"} <= {name for _, name in imports}
    assert sorted((f, name) for f, name in imports if name not in allowed) == []
