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


def _callee(func):
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_every_defaulted_setting_is_set_by_some_call_in_src():
    # a default that no call in the package overrides is a constant in
    # disguise, or a setting only tests turn. Callees are matched by name: a
    # function or method by its own, a constructor by its class's; a
    # functools.partial(f, ...) is a call of f and a ** mapping may set any
    # parameter. run_cli(argv) is left to sys.argv by the console script
    trees = [ast.parse(p.read_text(), str(p))
             for p in sorted(pathlib.Path(msopt.__file__).parent.rglob("*.py"))]
    nodes = [n for tree in trees for n in ast.walk(tree)]
    classes = [n for n in nodes if isinstance(n, ast.ClassDef)]
    params, defaulted = {}, set()
    for cls in classes:
        if any(k.arg == "frozen" for d in cls.decorator_list if isinstance(d, ast.Call)
               for k in d.keywords):
            fields = [s for s in cls.body if isinstance(s, ast.AnnAssign)]
            params[cls.name] = [f.target.id for f in fields]
            defaulted |= {(cls.name, f.target.id) for f in fields if f.value is not None}
    inits = {fn: cls.name for cls in classes for fn in cls.body
             if isinstance(fn, ast.FunctionDef) and fn.name == "__init__"}
    for fn in (n for n in nodes if isinstance(n, ast.FunctionDef)):
        owner = inits.get(fn, fn.name)
        args = fn.args.posonlyargs + fn.args.args
        if args and args[0].arg in ("self", "cls"):
            args = args[1:]
        params.setdefault(owner, [a.arg for a in args])
        defaulted |= {(owner, a.arg) for a in args[len(args) - len(fn.args.defaults):]}
        defaulted |= {(owner, a.arg) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                      if d is not None}
    set_by_calls = set()
    for call in (n for n in nodes if isinstance(n, ast.Call)):
        name, args = _callee(call.func), call.args
        if name == "partial" and args:
            name, args = _callee(args[0]), args[1:]
        set_by_calls |= {(name, p) for p in params.get(name, [])[:len(args)]}
        set_by_calls |= {(name, k.arg) for k in call.keywords if k.arg is not None}
        if any(k.arg is None for k in call.keywords):
            set_by_calls |= {(name, p) for p in params.get(name, [])}
    assert sorted(defaulted - set_by_calls - {("run_cli", "argv")}) == []
