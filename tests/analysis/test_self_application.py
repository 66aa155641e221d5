"""Self-application gate: the repo's own tree must lint clean.

This is the regression twin of the CI ``repro lint --json`` step: the
contract set only ratchets — a PR that reintroduces a bare
``json.dumps``, an unseeded RNG draw, a torn-write ``open(path, "w")``
in persistence, or an unguarded lazy init fails *here*, inside tier-1,
before CI even runs.  Every waiver must carry a written reason
(enforced structurally: a reasonless suppression surfaces as an
unsuppressed RPR000 and dirties the run)."""

from pathlib import Path

import pytest

from repro.analysis import all_rules, lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]
LINTED_TREES = ["src", "benchmarks", "examples"]


@pytest.fixture(scope="module")
def repo_report():
    paths = [REPO_ROOT / tree for tree in LINTED_TREES]
    missing = [p for p in paths if not p.is_dir()]
    if missing:  # pragma: no cover - source checkout only
        pytest.skip(f"not running from a full checkout (missing {missing})")
    return lint_paths(paths)


class TestSelfApplication:
    def test_the_tree_is_clean(self, repo_report):
        findings = repo_report.unsuppressed
        assert not findings, "\n" + "\n".join(
            f"{f.path}:{f.line}: {f.code} {f.message}" for f in findings
        )

    def test_every_suppression_carries_a_reason(self, repo_report):
        # Belt and braces: RPR000 already fails the clean check above,
        # but assert the ledger property directly on the waivers too.
        for finding in repo_report.suppressed:
            assert finding.suppression_reason, (
                f"{finding.path}:{finding.line} suppresses {finding.code} "
                "without a reason"
            )

    def test_known_waivers_are_the_expected_set(self, repo_report):
        # The waiver ledger is part of the contract: adding a
        # suppression is a reviewed decision, so list them here.
        waivers = sorted(
            (Path(f.path).name, f.code) for f in repo_report.suppressed
        )
        assert waivers == [
            ("_jsonsafe.py", "RPR003"),      # the wrapper that injects the default
            ("_validation.py", "RPR001"),    # sanctioned seed=None entropy funnel
            ("commitment.py", "RPR002"),     # hiding requires a fresh salt
            ("forest.py", "RPR006"),         # refit mutates wholesale, single-thread
        ]

    def test_the_run_covered_a_real_tree(self, repo_report):
        assert repo_report.n_files > 100  # src+benchmarks+examples today: 135

    def test_all_seven_contract_rules_are_registered(self):
        codes = [rule.code for rule in all_rules()]
        assert codes == [
            "RPR000", "RPR001", "RPR002", "RPR003",
            "RPR004", "RPR005", "RPR006", "RPR007",
        ]
