"""Unit tests for the invariant rule family (RP000-RP005).

Each rule is exercised against synthetic fixture modules written to paths
whose suffixes put them in (or out of) the rule's scope — the same suffix
matching the linter applies to the real tree.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis.framework import SourceFile, lint_file, lint_paths
from repro.analysis.invariants import (BareExceptRule, EntropyFormatTagRule,
                                       HotPathPixelLoopRule, HotPathSlowIdiomRule,
                                       MaskRederivationRule)


def lint_snippet(tmp_path, relpath, code, rules=None):
    """Write ``code`` at ``tmp_path/relpath`` and lint it."""
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(code))
    return lint_file(SourceFile(path), rules=rules)


def rule_ids(violations):
    return [violation.rule_id for violation in violations]


# --------------------------------------------------------------------------- #
# RP000 — suppression hygiene
# --------------------------------------------------------------------------- #
class TestAllowHygiene:
    def test_reasonless_allow_is_flagged(self, tmp_path):
        violations = lint_snippet(tmp_path, "repro/core/x.py", """
            value = compute()  # lint: allow RP001
        """, rules=[])
        assert rule_ids(violations) == ["RP000"]
        assert "reason" in violations[0].message

    def test_malformed_allow_is_flagged(self, tmp_path):
        violations = lint_snippet(tmp_path, "repro/core/x.py", """
            value = compute()  # lint: allow all the things
        """, rules=[])
        assert rule_ids(violations) == ["RP000"]
        assert "malformed" in violations[0].message

    def test_wellformed_allow_passes(self, tmp_path):
        violations = lint_snippet(tmp_path, "repro/core/x.py", """
            value = compute()  # lint: allow RP001 - documented exception
        """, rules=[])
        assert violations == []

    def test_reasonless_allow_does_not_suppress(self, tmp_path):
        violations = lint_snippet(tmp_path, "repro/serve/x.py", """
            import numpy as np
            idx = np.flatnonzero(mask)  # lint: allow RP001
        """, rules=[MaskRederivationRule()])
        assert sorted(rule_ids(violations)) == ["RP000", "RP001"]

    def test_unparsable_file_reports_rp000(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def broken(:\n")
        violations = lint_paths([path])
        assert rule_ids(violations) == ["RP000"]
        assert "does not parse" in violations[0].message


# --------------------------------------------------------------------------- #
# RP001 — mask-index re-derivation
# --------------------------------------------------------------------------- #
class TestMaskRederivation:
    RULES = [MaskRederivationRule()]

    def test_flatnonzero_on_mask_flagged(self, tmp_path):
        violations = lint_snippet(tmp_path, "repro/core/bad.py", """
            import numpy as np
            def gather(mask):
                return np.flatnonzero(mask)
        """, rules=self.RULES)
        assert rule_ids(violations) == ["RP001"]

    def test_boolean_fancy_indexing_flagged(self, tmp_path):
        violations = lint_snippet(tmp_path, "repro/serve/bad.py", """
            def pick(pixels, erase_mask):
                return pixels[erase_mask]
        """, rules=self.RULES)
        assert rule_ids(violations) == ["RP001"]

    def test_tuple_index_with_mask_flagged(self, tmp_path):
        violations = lint_snippet(tmp_path, "repro/core/bad.py", """
            def overwrite(tokens, flat_mask, new):
                tokens[:, flat_mask] = new
        """, rules=self.RULES)
        assert rule_ids(violations) == ["RP001"]

    def test_erase_squeeze_is_exempt(self, tmp_path):
        violations = lint_snippet(tmp_path, "repro/core/erase_squeeze.py", """
            import numpy as np
            def plan(mask):
                return np.flatnonzero(mask)
        """, rules=self.RULES)
        assert violations == []

    def test_out_of_scope_directories_pass(self, tmp_path):
        violations = lint_snippet(tmp_path, "repro/datasets/maskgen.py", """
            import numpy as np
            def sample(mask):
                return np.flatnonzero(mask)
        """, rules=self.RULES)
        assert violations == []

    def test_mask_bytes_dict_key_not_flagged(self, tmp_path):
        violations = lint_snippet(tmp_path, "repro/core/pipeline_like.py", """
            def group(groups, package):
                groups[package.mask_bytes] = 1
                return groups
        """, rules=self.RULES)
        assert violations == []

    def test_allow_comment_suppresses(self, tmp_path):
        violations = lint_snippet(tmp_path, "repro/core/plans.py", """
            import numpy as np
            def build(mask):
                return np.flatnonzero(mask)  # lint: allow RP001 - plan builder
        """, rules=self.RULES)
        assert violations == []


# --------------------------------------------------------------------------- #
# RP002 — entropy format tag
# --------------------------------------------------------------------------- #
class TestEntropyFormatTag:
    RULES = [EntropyFormatTagRule()]

    BAD = """
        from repro.entropy import RangeEncoder
        def encode(data):
            encoder = RangeEncoder()
            return encoder.encode(data)
    """

    GOOD = """
        from repro.entropy import RangeEncoder
        FORMAT_RANGE = 1
        def encode(data):
            encoder = RangeEncoder()
            return bytes([FORMAT_RANGE]) + encoder.encode(data)
    """

    def test_untagged_coder_flagged(self, tmp_path):
        violations = lint_snippet(tmp_path, "repro/codecs/bad.py", self.BAD,
                                  rules=self.RULES)
        assert rule_ids(violations) == ["RP002"]
        assert "FORMAT_RANGE" in violations[0].message

    def test_tagged_coder_passes(self, tmp_path):
        violations = lint_snippet(tmp_path, "repro/codecs/good.py", self.GOOD,
                                  rules=self.RULES)
        assert violations == []

    def test_entropy_package_is_exempt(self, tmp_path):
        violations = lint_snippet(tmp_path, "repro/entropy/inner.py", self.BAD,
                                  rules=self.RULES)
        assert violations == []

    def test_untagged_decoder_flagged(self, tmp_path):
        violations = lint_snippet(tmp_path, "repro/codecs/half.py", """
            from repro.entropy import RangeDecoder
            def decode(blob):
                return RangeDecoder(blob)
        """, rules=self.RULES)
        assert rule_ids(violations) == ["RP002"]


# --------------------------------------------------------------------------- #
# RP003 — per-pixel loops in hot-path modules
# --------------------------------------------------------------------------- #
class TestHotPathPixelLoop:
    RULES = [HotPathPixelLoopRule()]

    NESTED = """
        def idct(block):
            total = 0
            for row in range(8):
                for col in range(8):
                    total += block[row][col]
            return total
    """

    def test_nested_range_loop_in_hot_module_flagged(self, tmp_path):
        violations = lint_snippet(tmp_path, "repro/codecs/jpeg.py", self.NESTED,
                                  rules=self.RULES)
        assert rule_ids(violations) == ["RP003"]

    def test_single_loop_passes(self, tmp_path):
        violations = lint_snippet(tmp_path, "repro/core/patchify.py", """
            def scan(n):
                return [i * i for i in range(n)] + [j for j in range(n)]
        """, rules=self.RULES)
        assert violations == []

    def test_cold_module_is_exempt(self, tmp_path):
        violations = lint_snippet(tmp_path, "repro/experiments/tables.py",
                                  self.NESTED, rules=self.RULES)
        assert violations == []


# --------------------------------------------------------------------------- #
# RP004 — slow idioms in hot-path modules
# --------------------------------------------------------------------------- #
class TestHotPathSlowIdiom:
    RULES = [HotPathSlowIdiomRule()]

    def test_tolist_flagged(self, tmp_path):
        violations = lint_snippet(tmp_path, "repro/entropy/rle.py", """
            def encode(values):
                return list(values.tolist())
        """, rules=self.RULES)
        assert rule_ids(violations) == ["RP004"]

    def test_integer_cube_flagged(self, tmp_path):
        violations = lint_snippet(tmp_path, "repro/core/batch_engine.py", """
            def gelu_inner(x):
                return x + 0.044715 * x ** 3
        """, rules=self.RULES)
        assert rule_ids(violations) == ["RP004"]
        assert "pow fallback" in violations[0].message

    def test_square_and_constant_base_pass(self, tmp_path):
        violations = lint_snippet(tmp_path, "repro/core/batch_engine.py", """
            SCALE = 2 ** 16
            def square(x):
                return x ** 2
        """, rules=self.RULES)
        assert violations == []

    def test_cold_module_is_exempt(self, tmp_path):
        violations = lint_snippet(tmp_path, "repro/metrics/quality.py", """
            def cube(x):
                return x ** 3 + x.tolist()
        """, rules=self.RULES)
        assert violations == []

    def test_allow_comment_suppresses(self, tmp_path):
        violations = lint_snippet(tmp_path, "repro/entropy/rle.py", """
            def encode(values):
                return list(values.tolist())  # lint: allow RP004 - consumer wants python ints
        """, rules=self.RULES)
        assert violations == []


# --------------------------------------------------------------------------- #
# RP005 — bare-except justification
# --------------------------------------------------------------------------- #
class TestBareExcept:
    RULES = [BareExceptRule()]

    def test_unjustified_broad_except_flagged(self, tmp_path):
        violations = lint_snippet(tmp_path, "repro/serve/handler.py", """
            def run(task):
                try:
                    task()
                except Exception:
                    pass
        """, rules=self.RULES)
        assert rule_ids(violations) == ["RP005"]

    def test_bare_except_flagged(self, tmp_path):
        violations = lint_snippet(tmp_path, "repro/serve/handler.py", """
            def run(task):
                try:
                    task()
                except:
                    pass
        """, rules=self.RULES)
        assert rule_ids(violations) == ["RP005"]

    def test_justified_except_passes(self, tmp_path):
        violations = lint_snippet(tmp_path, "repro/serve/handler.py", """
            def run(task):
                try:
                    task()
                except Exception:  # noqa: BLE001 - marshalled to the future
                    pass
        """, rules=self.RULES)
        assert violations == []

    def test_reasonless_noqa_still_flagged(self, tmp_path):
        violations = lint_snippet(tmp_path, "repro/serve/handler.py", """
            def run(task):
                try:
                    task()
                except Exception:  # noqa: BLE001
                    pass
        """, rules=self.RULES)
        assert rule_ids(violations) == ["RP005"]

    def test_reraising_handler_is_exempt(self, tmp_path):
        violations = lint_snippet(tmp_path, "repro/serve/handler.py", """
            def run(task):
                try:
                    task()
                except Exception:
                    cleanup()
                    raise
        """, rules=self.RULES)
        assert violations == []

    def test_narrow_except_passes(self, tmp_path):
        violations = lint_snippet(tmp_path, "repro/serve/handler.py", """
            def run(task):
                try:
                    task()
                except ValueError:
                    pass
        """, rules=self.RULES)
        assert violations == []


# --------------------------------------------------------------------------- #
# framework-level behaviour
# --------------------------------------------------------------------------- #
class TestFramework:
    def test_violation_render_format(self, tmp_path):
        violations = lint_snippet(tmp_path, "repro/core/bad.py", """
            import numpy as np
            def gather(mask):
                return np.flatnonzero(mask)
        """, rules=[MaskRederivationRule()])
        rendered = violations[0].render()
        assert "RP001" in rendered
        prefix = rendered.split(" ", 1)[0]
        path, line, col = prefix.rsplit(":", 2)
        assert path.endswith("repro/core/bad.py")
        assert int(line) == 4 and int(col) >= 0

    def test_multi_id_allow_comment(self, tmp_path):
        violations = lint_snippet(tmp_path, "repro/core/patchify.py", """
            import numpy as np
            def plan(mask):
                return np.flatnonzero(mask).tolist()  # lint: allow RP001,RP004 - builder returns python ints
        """, rules=[MaskRederivationRule(), HotPathSlowIdiomRule()])
        assert violations == []

    def test_lint_paths_walks_directories(self, tmp_path):
        package = tmp_path / "repro" / "core"
        package.mkdir(parents=True)
        (package / "bad.py").write_text(
            "import numpy as np\n\n"
            "def gather(mask):\n    return np.flatnonzero(mask)\n")
        (package / "good.py").write_text("VALUE = 1\n")
        violations = lint_paths([tmp_path], rules=[MaskRederivationRule()])
        assert rule_ids(violations) == ["RP001"]


def test_cli_list_rules_covers_catalogue(capsys):
    from repro.analysis.cli import main
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("RP001", "RP002", "RP003", "RP004", "RP005",
                    "RP101", "RP102", "RP103", "RP104"):
        assert rule_id in out


def test_cli_exit_codes(tmp_path, capsys):
    from repro.analysis.cli import main
    clean = tmp_path / "clean.py"
    clean.write_text("VALUE = 1\n")
    assert main([str(clean)]) == 0
    dirty = tmp_path / "repro" / "serve" / "dirty.py"
    dirty.parent.mkdir(parents=True)
    dirty.write_text("import numpy as np\n\n"
                     "def gather(mask):\n    return np.flatnonzero(mask)\n")
    assert main([str(dirty)]) == 1
    out = capsys.readouterr().out
    assert "RP001" in out
    with pytest.raises(SystemExit) as excinfo:
        main(["--no-such-flag"])
    assert excinfo.value.code == 2
