"""Which functions of `src/arfkit` a pytest run enters: an opt-in plugin.

    PYTHONPATH=src python -m pytest -p tools.reach [pytest arguments]

Run it from the root of the repository, so that `tools` imports.  A
`sys.setprofile` hook, set for every thread, records each code object
entered.  When the session ends, every function and lambda defined under
`src/arfkit` that the run never entered is written to `reach-report.txt`
in the working directory, one `path:line qualname` a line.  A method that
a subclass under `src/arfkit` overrides is tagged `[base]`: it is a base
class's stub or default.  Comprehensions are not listed.

The hook slows the run about threefold.  The plugin uses the standard
library only, and `arfkit` never imports it.
"""
from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "arfkit"
REPORT = "reach-report.txt"

_entered = set()
_summary = []


def _profile(frame, event, arg):
    if event == "call":
        _entered.add(frame.f_code)


def definitions(path):
    """(first line, qualname, class name or None) of each function and
    lambda in `path`, and {class name: (base expressions, method names)}.
    The first line is that of the code object: the first decorator's, if
    any."""
    defs, classes = [], {}

    def walk(node, prefix, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                defs.append((first, prefix + child.name, cls))
                if cls is not None:
                    classes[cls][1].add(child.name)
                walk(child, prefix + child.name + ".<locals>.", None)
            elif isinstance(child, ast.ClassDef):
                classes[child.name] = ([ast.unparse(b) for b in child.bases], set())
                walk(child, prefix + child.name + ".", child.name)
            elif isinstance(child, ast.Lambda):
                defs.append((child.lineno, prefix + "<lambda>", None))
                walk(child, prefix, None)
            else:
                walk(child, prefix, cls)

    walk(ast.parse(path.read_text(), str(path)), "", None)
    return defs, classes


def _overridden(classes):
    """{(class, method)} for each method that a subclass redefines."""
    out = set()
    for name, (bases, methods) in classes.items():
        todo = list(bases)
        while todo:
            base = todo.pop()
            if base in classes:
                out.update((base, m) for m in methods & classes[base][1])
                todo.extend(classes[base][0])
    return out


def pytest_configure(config):
    sys.setprofile(_profile)
    threading.setprofile(_profile)


def pytest_sessionfinish(session):
    sys.setprofile(None)
    threading.setprofile(None)
    entered = {(str(Path(c.co_filename).resolve()), c.co_firstlineno, c.co_name)
               for c in _entered}
    files, classes = [], {}
    for path in sorted(SRC.rglob("*.py")):
        defs, found = definitions(path)
        files.append((path, defs))
        classes.update(found)
    base = _overridden(classes)
    lines, total = [], 0
    for path, defs in files:
        rel = path.relative_to(SRC.parents[1])
        for line, qualname, cls in defs:
            total += 1
            name = qualname.rsplit(".", 1)[-1]
            if (str(path.resolve()), line, name) not in entered:
                tag = " [base]" if (cls, name) in base else ""
                lines.append(f"{rel}:{line} {qualname}{tag}")
    concrete = sum(not ln.endswith("[base]") for ln in lines)
    _summary.append(f"{len(lines)} of {total} definitions never entered, "
                    f"{concrete} of them not base-class methods")
    Path(REPORT).write_text(f"# {_summary[-1]}\n" + "".join(ln + "\n" for ln in lines))


def pytest_terminal_summary(terminalreporter):
    terminalreporter.write_line(f"reach: {_summary[-1]}; see {REPORT}")
