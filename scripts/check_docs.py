"""Documentation checker: links, paths, CLI invocations, docstrings.

Run from the repository root (CI runs it in the docs job)::

    python -m scripts.check_docs

Checks, over ``README.md``, ``ROADMAP.md`` and every ``docs/*.md``:

1. relative markdown links ``[text](target)`` point at files/directories
   that exist (anchors are stripped; external ``http(s)://`` links are
   not fetched);
2. repository paths mentioned in prose or tables — ``benchmarks/*.py``,
   ``examples/*.py``, ``tests/**.py``, ``docs/*.md``, ``scripts/*.py`` —
   exist;
3. absolute filesystem paths (``/root/...``, ``/home/...``, ``/opt/...``,
   ``/tmp/...``) mentioned in the documents exist on this machine —
   references to container-local material that has since been removed
   (e.g. a retrieval scratch directory) are dangling pointers for every
   reader and fail the check;
4. documented CLI entry points parse: every ``python -m repro.eval ...``
   invocation found in the documents is validated against the real
   argument parser (no network, no training — parse only);
5. test references ``tests/<module>.py::Name`` and
   ``tests/<module>.py::Class::name`` name a class or function defined at
   the top level of that module (and, for the second form, a method of
   that class), so a moved or renamed test leaves no dangling pointer;

and, over the public API:

6. every public symbol exported from the ``repro.faults``, ``repro.eval``
   and ``repro.tensor`` package ``__init__`` (their ``__all__``) that is
   a class, function, or module carries a docstring — the docs suite
   links into these namespaces, so an undocumented export is a
   documentation failure, not just a style nit.  Plain data constants
   (tuples like ``PRESETS``, config instances like ``PER_CELL``) are exempt:
   they cannot carry their own ``__doc__``.

Exits non-zero listing every failure, so CI catches stale docs the moment
a file moves, a flag is renamed, or an export loses its docstring.
"""

from __future__ import annotations

import ast
import inspect
import pathlib
import re
import shlex
import sys
from typing import List

ROOT = pathlib.Path(__file__).resolve().parents[1]

LINK_RE = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")
PATH_RE = re.compile(
    r"\b((?:benchmarks|examples|tests|docs|scripts)/[\w./-]+?\.(?:py|md))\b"
)
#: Absolute paths outside the repository (container-local directories a
#: doc might dangle at after the material is removed).  ``/tmp`` is
#: included so tests can exercise the check against real paths.
ABS_PATH_RE = re.compile(
    r"(/(?:root|home|opt|srv|mnt|data|tmp)/[\w][\w./*<>-]*)"
)
CLI_RE = re.compile(r"python -m repro\.eval[^\n`|]*")

TEST_REF_RE = re.compile(r"\b(tests/[\w/]+\.py)::(\w+)(?:::(\w+))?")

#: Public namespaces whose exports must be documented (check 6).
AUDITED_MODULES = ("repro.faults", "repro.eval", "repro.tensor")


def _rel(doc: pathlib.Path) -> str:
    """Repo-relative label for failure messages (plain path outside ROOT)."""
    try:
        return str(doc.relative_to(ROOT))
    except ValueError:
        return str(doc)


def _doc_files() -> List[pathlib.Path]:
    docs = [ROOT / "README.md", ROOT / "ROADMAP.md"]
    docs.extend(sorted((ROOT / "docs").glob("*.md")))
    return [d for d in docs if d.exists()]


def _check_links(doc: pathlib.Path, text: str) -> List[str]:
    errors = []
    for target in LINK_RE.findall(text):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        relative = target.split("#", 1)[0]
        if not relative:
            continue
        resolved = (doc.parent / relative).resolve()
        if not resolved.exists():
            errors.append(f"{_rel(doc)}: broken link -> {target}")
    return errors


def _check_paths(doc: pathlib.Path, text: str) -> List[str]:
    errors = []
    for path in set(PATH_RE.findall(text)):
        if "*" in path or "<" in path:
            continue
        if not (ROOT / path).exists():
            errors.append(f"{_rel(doc)}: missing path -> {path}")
    return errors


def _check_external_paths(doc: pathlib.Path, text: str) -> List[str]:
    """Flag absolute filesystem references that do not exist (check 3)."""
    errors = []
    cleaned_paths = {
        path.rstrip(".,;:") for path in ABS_PATH_RE.findall(text)
    }
    for cleaned in sorted(cleaned_paths):
        if "*" in cleaned or "<" in cleaned:
            continue  # glob/placeholder, not a concrete reference
        if not pathlib.Path(cleaned).exists():
            errors.append(
                f"{_rel(doc)}: dangling filesystem path -> {cleaned}"
            )
    return errors


def _check_test_refs(doc: pathlib.Path, text: str) -> List[str]:
    """Flag ``tests/...py::Name[::name]`` that name nothing there (check 5).

    A missing module is the path check's failure, not reported again.
    """
    errors = []
    for path, name, member in sorted(set(TEST_REF_RE.findall(text))):
        module = ROOT / path
        if not module.exists():
            continue
        tree = ast.parse(module.read_text(encoding="utf-8"))
        defined = {
            node.name: node for node in tree.body
            if isinstance(node, (ast.ClassDef, ast.FunctionDef))
        }
        node = defined.get(name)
        found = node is not None and (
            not member
            or isinstance(node, ast.ClassDef) and any(
                isinstance(item, ast.FunctionDef) and item.name == member
                for item in node.body
            )
        )
        if not found:
            ref = f"{path}::{name}" + (f"::{member}" if member else "")
            errors.append(f"{_rel(doc)}: test reference names nothing -> {ref}")
    return errors


def _check_cli_commands(doc: pathlib.Path, text: str) -> List[str]:
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from repro.eval.cli import build_parser
    finally:
        sys.path.pop(0)
    parser = build_parser()
    errors = []
    # Join backslash line continuations first, so flags on continuation
    # lines are part of the matched command and get validated too.
    joined = re.sub(r"\\\s*\n\s*", " ", text)
    for command in CLI_RE.findall(joined):
        if "..." in command:  # schematic example, not a runnable invocation
            continue
        argv = shlex.split(command)[3:]  # drop python -m repro.eval
        try:
            parser.parse_args(argv)
        except SystemExit:
            errors.append(
                f"{_rel(doc)}: CLI invocation does not parse -> "
                f"{command.strip()}"
            )
    return errors


def _module_docstring_errors(module) -> List[str]:
    """Missing-docstring failures for one imported package namespace."""
    errors = []
    name = module.__name__
    exported = getattr(module, "__all__", None)
    if exported is None:
        return [f"{name}: public namespace has no __all__ to audit"]
    for symbol in exported:
        obj = getattr(module, symbol, None)
        if obj is None and symbol not in vars(module):
            errors.append(f"{name}.{symbol}: listed in __all__ but missing")
            continue
        if not (
            inspect.isclass(obj)
            or inspect.isroutine(obj)
            or inspect.ismodule(obj)
        ):
            continue  # data constants cannot carry their own __doc__
        doc = inspect.getdoc(obj)
        if not doc or not doc.strip():
            kind = (
                "class" if inspect.isclass(obj)
                else "module" if inspect.ismodule(obj)
                else "function"
            )
            errors.append(f"{name}.{symbol}: public {kind} has no docstring")
    return errors


def _check_docstrings(module_names=AUDITED_MODULES) -> List[str]:
    import importlib

    sys.path.insert(0, str(ROOT / "src"))
    try:
        errors: List[str] = []
        for name in module_names:
            errors += _module_docstring_errors(importlib.import_module(name))
        return errors
    finally:
        sys.path.pop(0)


def main() -> int:
    failures: List[str] = []
    for doc in _doc_files():
        text = doc.read_text(encoding="utf-8")
        failures += _check_links(doc, text)
        failures += _check_paths(doc, text)
        failures += _check_external_paths(doc, text)
        failures += _check_cli_commands(doc, text)
        failures += _check_test_refs(doc, text)
    failures += _check_docstrings()
    if failures:
        print(f"check_docs: {len(failures)} failure(s)")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(
        f"check_docs: {len(_doc_files())} documents OK, "
        f"{len(AUDITED_MODULES)} public namespaces documented"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
