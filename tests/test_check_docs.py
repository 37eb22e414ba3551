"""Tests for the documentation checker itself (``scripts.check_docs``).

The checker gates CI's docs job, so its failure modes need pinning: a
broken relative link, a mentioned-but-missing repo path, a CLI
invocation that no longer parses, a test reference that names nothing,
and a public export without a docstring must each produce exactly one
targeted failure — and clean inputs none.
"""

import pathlib
import types

import pytest

from scripts import check_docs


def _doc(tmp_path: pathlib.Path, text: str) -> pathlib.Path:
    doc = tmp_path / "page.md"
    doc.write_text(text, encoding="utf-8")
    return doc


class TestLinkCheck:
    def test_broken_relative_link_fails(self, tmp_path):
        doc = _doc(tmp_path, "See [the guide](missing/guide.md) for more.")
        errors = check_docs._check_links(doc, doc.read_text())
        assert len(errors) == 1
        assert "broken link" in errors[0] and "missing/guide.md" in errors[0]

    def test_existing_link_passes(self, tmp_path):
        (tmp_path / "guide.md").write_text("x")
        doc = _doc(tmp_path, "See [the guide](guide.md).")
        assert check_docs._check_links(doc, doc.read_text()) == []

    def test_external_and_anchor_links_skipped(self, tmp_path):
        doc = _doc(
            tmp_path,
            "[web](https://example.com/x) [mail](mailto:a@b.c) [top](#top)",
        )
        assert check_docs._check_links(doc, doc.read_text()) == []

    def test_anchor_suffix_stripped(self, tmp_path):
        (tmp_path / "guide.md").write_text("x")
        doc = _doc(tmp_path, "[section](guide.md#section)")
        assert check_docs._check_links(doc, doc.read_text()) == []


class TestPathCheck:
    def test_missing_repo_path_fails(self, tmp_path):
        doc = _doc(tmp_path, "Run `tests/no_such_test_module.py` first.")
        errors = check_docs._check_paths(doc, doc.read_text())
        assert len(errors) == 1
        assert "missing path" in errors[0]
        assert "tests/no_such_test_module.py" in errors[0]

    def test_existing_repo_path_passes(self, tmp_path):
        doc = _doc(tmp_path, "Run `scripts/check_docs.py` first.")
        assert check_docs._check_paths(doc, doc.read_text()) == []

    def test_glob_and_placeholder_paths_skipped(self, tmp_path):
        doc = _doc(tmp_path, "All of `tests/*.py` and `docs/<name>.md`.")
        assert check_docs._check_paths(doc, doc.read_text()) == []


class TestExternalPathCheck:
    def test_dangling_absolute_path_fails(self, tmp_path):
        doc = _doc(
            tmp_path,
            "Material lives under `/root/no_such_dir_xyz/files` now.",
        )
        errors = check_docs._check_external_paths(doc, doc.read_text())
        assert len(errors) == 1
        assert "dangling filesystem path" in errors[0]
        assert "/root/no_such_dir_xyz/files" in errors[0]

    def test_existing_absolute_path_passes(self, tmp_path):
        target = tmp_path / "exists.md"
        target.write_text("x")
        doc = _doc(tmp_path, f"See `{target}` for details.")
        assert check_docs._check_external_paths(doc, doc.read_text()) == []

    def test_trailing_punctuation_stripped(self, tmp_path):
        target = tmp_path / "exists.md"
        target.write_text("x")
        doc = _doc(tmp_path, f"The notes are in {target}.")
        assert check_docs._check_external_paths(doc, doc.read_text()) == []

    def test_glob_and_placeholder_paths_skipped(self, tmp_path):
        doc = _doc(
            tmp_path,
            "Caches live in /tmp/repro-*/cache and /root/<user>/dir.",
        )
        assert check_docs._check_external_paths(doc, doc.read_text()) == []

    def test_each_path_reported_once(self, tmp_path):
        doc = _doc(
            tmp_path,
            "See /root/gone_dir_abc/a.py and again /root/gone_dir_abc/a.py.",
        )
        errors = check_docs._check_external_paths(doc, doc.read_text())
        assert len(errors) == 1


class TestCliCheck:
    def test_unparseable_invocation_fails(self, tmp_path):
        doc = _doc(tmp_path, "Run `python -m repro.eval frobnicate --bogus`.")
        errors = check_docs._check_cli_commands(doc, doc.read_text())
        assert len(errors) == 1
        assert "does not parse" in errors[0]

    def test_unknown_flag_fails(self, tmp_path):
        doc = _doc(
            tmp_path, "Run `python -m repro.eval table1 --no-such-flag`."
        )
        errors = check_docs._check_cli_commands(doc, doc.read_text())
        assert len(errors) == 1

    def test_valid_invocation_passes(self, tmp_path):
        doc = _doc(
            tmp_path,
            "Run `python -m repro.eval campaign --task co2 --fault uniform "
            "--levels 0 0.1 --runs 4 --profile`.",
        )
        assert check_docs._check_cli_commands(doc, doc.read_text()) == []

    def test_schematic_ellipsis_skipped(self, tmp_path):
        doc = _doc(tmp_path, "Run `python -m repro.eval campaign ...`.")
        assert check_docs._check_cli_commands(doc, doc.read_text()) == []

    def test_backslash_continuation_joined(self, tmp_path):
        doc = _doc(
            tmp_path,
            "```bash\npython -m repro.eval campaign --task audio \\\n"
            "    --fault bitflip --no-such-flag\n```\n",
        )
        errors = check_docs._check_cli_commands(doc, doc.read_text())
        assert len(errors) == 1
        assert "--no-such-flag" in errors[0]


class TestTestRefCheck:
    def test_reference_to_nothing_fails(self, tmp_path):
        doc = _doc(
            tmp_path,
            "Pinned by `tests/test_check_docs.py::TestGone` and "
            "`tests/test_check_docs.py::TestLinkCheck::test_gone`; "
            "`tests/faults/stacking.py::build_pair::x` is no class.",
        )
        errors = check_docs._check_test_refs(doc, doc.read_text())
        assert len(errors) == 3
        assert all("test reference names nothing" in e for e in errors)
        assert any(e.endswith("::TestLinkCheck::test_gone") for e in errors)

    def test_defined_references_pass(self, tmp_path):
        doc = _doc(
            tmp_path,
            "See tests/test_check_docs.py::TestTestRefCheck, "
            "tests/test_check_docs.py::TestLinkCheck::test_existing_link_passes "
            "and tests/faults/stacking.py::build_pair.",
        )
        assert check_docs._check_test_refs(doc, doc.read_text()) == []

    def test_missing_module_left_to_the_path_check(self, tmp_path):
        doc = _doc(tmp_path, "`tests/no_such_module.py::TestX` is gone.")
        assert check_docs._check_test_refs(doc, doc.read_text()) == []


class TestDocstringAudit:
    def _module(self, name="fake.mod", **symbols):
        module = types.ModuleType(name)
        module.__all__ = list(symbols)
        for attr, value in symbols.items():
            setattr(module, attr, value)
        return module

    def test_missing_function_docstring_fails(self):
        def undocumented():
            pass

        module = self._module(undocumented=undocumented)
        errors = check_docs._module_docstring_errors(module)
        assert len(errors) == 1
        assert "undocumented" in errors[0] and "no docstring" in errors[0]

    def test_missing_class_docstring_fails(self):
        class Undocumented:
            pass

        errors = check_docs._module_docstring_errors(
            self._module(Undocumented=Undocumented)
        )
        assert len(errors) == 1 and "public class" in errors[0]

    def test_documented_symbols_pass(self):
        def documented():
            """Does a thing."""

        class Documented:
            """Is a thing."""

        errors = check_docs._module_docstring_errors(
            self._module(documented=documented, Documented=Documented)
        )
        assert errors == []

    def test_data_constants_exempt(self):
        errors = check_docs._module_docstring_errors(
            self._module(EXECUTORS=("a", "b"), PRESETS={"tiny": 1})
        )
        assert errors == []

    def test_inherited_object_doc_does_not_count(self):
        # inspect.getdoc would otherwise fall back to a base docstring;
        # a class documented only by ``object`` must still fail... but
        # note inspect.getdoc(object subclass) returns None for undecorated
        # classes on 3.11, which is exactly what the checker relies on.
        class Plain:
            pass

        assert check_docs._module_docstring_errors(self._module(P=Plain))

    def test_phantom_export_fails(self):
        module = types.ModuleType("fake.mod")
        module.__all__ = ["ghost"]
        errors = check_docs._module_docstring_errors(module)
        assert len(errors) == 1 and "missing" in errors[0]

    def test_module_without_all_fails(self):
        module = types.ModuleType("fake.mod")
        errors = check_docs._module_docstring_errors(module)
        assert len(errors) == 1 and "__all__" in errors[0]

    def test_audited_namespaces_are_clean(self):
        # The real repo namespaces must stay documented.
        assert check_docs._check_docstrings() == []


class TestEndToEnd:
    def test_main_passes_on_repo_docs(self, capsys):
        assert check_docs.main() == 0
        out = capsys.readouterr().out
        assert "OK" in out

    def test_repo_docs_individually_clean(self):
        for doc in check_docs._doc_files():
            text = doc.read_text(encoding="utf-8")
            assert check_docs._check_links(doc, text) == []
            assert check_docs._check_paths(doc, text) == []
            assert check_docs._check_external_paths(doc, text) == []
            assert check_docs._check_cli_commands(doc, text) == []
            assert check_docs._check_test_refs(doc, text) == []

    def test_roadmap_is_audited(self):
        names = [doc.name for doc in check_docs._doc_files()]
        assert "ROADMAP.md" in names
