"""Every option of ptlab has a caller, and every config key a reader.

A parameter with a default is an option.  One that no call in `src/`,
`tests/` or `demos/` passes, by keyword or by position, is never used
with any value but its default, so it belongs in the code as a
constant.  Calls are matched by the name of the function (or of the
class, for `__init__`), so a call to a same-named function elsewhere
also counts as a use.  Likewise a key of a subcommand's config schema
that its runner never reads as `params["key"]` sets nothing.
"""

import ast
import os

from ptlab import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "ptlab")
CALLERS = ("src", "tests", "demos")


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def _python_files(top):
    for dirpath, _, names in os.walk(top):
        for name in sorted(names):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def _options(tree, module):
    """(callee name, position, parameter name, label) for each defaulted
    parameter; `position` is the index a positional argument at the call
    site takes, None for keyword-only parameters."""
    out = []

    def visit(node, cls=None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                skip = 1 if cls is not None and not static else 0
                callee = cls if child.name == "__init__" else child.name
                a = child.args
                params = a.posonlyargs + a.args
                first = len(params) - len(a.defaults)
                for i in range(first, len(params)):
                    out.append((callee, i - skip, params[i].arg,
                                f"{module}.{child.name}({params[i].arg})"))
                for p, d in zip(a.kwonlyargs, a.kw_defaults):
                    if d is not None:
                        out.append((callee, None, p.arg,
                                    f"{module}.{child.name}({p.arg})"))
                visit(child)
            else:
                visit(child, cls)

    visit(tree)
    return out


def _calls():
    """callee name -> list of (n_positional or None if starred, keywords or None if **)."""
    calls = {}
    for top in CALLERS:
        for path in _python_files(os.path.join(ROOT, top)):
            for node in ast.walk(_parse(path)):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name is None:
                    continue
                n_pos = (None if any(isinstance(a, ast.Starred) for a in node.args)
                         else len(node.args))
                kws = {k.arg for k in node.keywords}
                calls.setdefault(name, []).append((n_pos, None if None in kws else kws))
    return calls


def test_every_option_is_set_by_a_caller():
    calls = _calls()
    options = [opt for path in _python_files(PACKAGE)
               for opt in _options(_parse(path),
                                   os.path.splitext(os.path.basename(path))[0])]
    assert options, f"no options found under {PACKAGE}"
    unset = [label for callee, pos, param, label in options
             if not any(n_pos is None or kws is None or param in kws
                        or (pos is not None and n_pos > pos)
                        for n_pos, kws in calls.get(callee, ()))]
    assert not unset, ("options no caller sets (make them constants): "
                       + ", ".join(unset))


def test_every_config_key_is_read_by_its_runner():
    tree = _parse(os.path.join(PACKAGE, "cli.py"))
    runners = {node.name: node for node in tree.body
               if isinstance(node, ast.FunctionDef)}
    unread = []
    for sub, schema in cli.SCHEMAS.items():
        runner = runners[cli.RUNNERS[sub].__name__]
        read = {node.slice.value for node in ast.walk(runner)
                if isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Name) and node.value.id == "params"
                and isinstance(node.slice, ast.Constant)}
        unread += [f"{sub}.{key}" for key in schema if key not in read]
    assert not unread, "config keys no runner reads: " + ", ".join(unread)
