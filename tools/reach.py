"""Which functions of `src/arfkit` a pytest run enters: an opt-in plugin.

    PYTHONPATH=src python -m pytest -p tools.reach [--reach-raises] [pytest arguments]

Run it from the root of the repository, so that `tools` imports.  A
`sys.setprofile` hook, set for every thread, records each code object
entered.  When the session ends, every function and lambda defined under
`src/arfkit` that the run never entered is written to `reach-report.txt`
in the working directory, one `path:line qualname` a line.  A method that
a subclass under `src/arfkit` overrides is tagged `[base]`: it is a base
class's stub or default.  Comprehensions are not listed.

With `--reach-raises`, a `sys.settrace` hook, also set for every thread,
records the lines run in frames of `src/arfkit` code (other frames are not
traced line by line).  Every `raise` statement under `src/arfkit` whose
first line never ran, and that carries no `# invariant:` comment (on its
own lines or in the comment block right above it), is written to
`reach-raises.txt`, one `path:line statement` a line.  The comment states
why the statement cannot fire.  A `raise` that shares its first line with
the `if` guarding it counts as run whenever that line runs.

The profile hook slows the run about threefold, the line hook several
times more.  The plugin uses the standard library only, and `arfkit` never
imports it.
"""
from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "arfkit"
REPORT = "reach-report.txt"
RAISES = "reach-raises.txt"
TAG = "# invariant:"

_entered = set()
_summary = []
_lines_run = set()      # (co_filename, line) run in a frame of src/arfkit
_in_src = {}            # co_filename -> whether it lies under src/arfkit


def _profile(frame, event, arg):
    if event == "call":
        _entered.add(frame.f_code)


def _trace(frame, event, arg):
    name = frame.f_code.co_filename
    inside = _in_src.get(name)
    if inside is None:
        inside = _in_src[name] = Path(name).resolve().is_relative_to(SRC)
    return _trace_lines if inside else None


def _trace_lines(frame, event, arg):
    if event == "line":
        _lines_run.add((frame.f_code.co_filename, frame.f_lineno))
    return _trace_lines


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


def raises(path):
    """(line, statement) of each `raise` in `path` that carries no `# invariant:`
    comment, the statement's first line stripped."""
    lines = path.read_text().splitlines()
    out = []
    for node in ast.walk(ast.parse("\n".join(lines), str(path))):
        if not isinstance(node, ast.Raise):
            continue
        first = node.lineno - 1
        tagged = any(TAG in ln for ln in lines[first:node.end_lineno])
        above = first - 1
        while not tagged and above >= 0 and lines[above].lstrip().startswith("#"):
            tagged = TAG in lines[above]
            above -= 1
        if not tagged:
            out.append((node.lineno, lines[first].strip()))
    return sorted(out)


def _raise_report():
    run = {(str(Path(name).resolve()), line) for name, line in _lines_run}
    listed, total = [], 0
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC.parents[1])
        for line, text in raises(path):
            total += 1
            if (str(path.resolve()), line) not in run:
                listed.append(f"{rel}:{line} {text}")
    _summary.append(f"{len(listed)} of {total} untagged raise statements never run")
    Path(RAISES).write_text(f"# {_summary[-1]}\n" + "".join(ln + "\n" for ln in listed))


def pytest_addoption(parser):
    parser.addoption("--reach-raises", action="store_true", default=False,
                     help=f"also write {RAISES}: the raise statements of src/arfkit "
                          f"that never ran and carry no '{TAG}' comment")


def pytest_configure(config):
    sys.setprofile(_profile)
    threading.setprofile(_profile)
    if config.getoption("--reach-raises"):
        sys.settrace(_trace)
        threading.settrace(_trace)


def pytest_sessionfinish(session):
    sys.setprofile(None)
    threading.setprofile(None)
    tracing = session.config.getoption("--reach-raises")
    if tracing:
        sys.settrace(None)
        threading.settrace(None)
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
    if tracing:
        _raise_report()


def pytest_terminal_summary(terminalreporter):
    for summary, report in zip(_summary, (REPORT, RAISES)):
        terminalreporter.write_line(f"reach: {summary}; see {report}")
