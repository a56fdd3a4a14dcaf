"""Registry shape, determinism, and the fast verification suites end to end.

The slow suites (eigen-ph, the two equivalence suites, membership) are
exercised by the acceptance tests; here everything must stay quick enough
to run on every edit.
"""

import json

import pytest

from gvs.errors import ParameterError
from gvs.suites import (
    CSV_HEADER,
    SuiteConfig,
    csv_rows,
    run_suite,
    suite_ids,
)

FAST_SUITES = [
    "eigen-ou",
    "stable-derivatives",
    "lemma-moment",
    "corollary-tv",
    "lemma-maximal",
    "norm-lemma-i-iv",
    "holder",
    "minkowski",
    "conjugate",
    "power-identity",
    "log-convexity",
]


class TestRegistry:
    def test_registry_has_twenty_one_suites(self):
        ids = suite_ids()
        assert len(ids) == 21
        assert len(set(ids)) == 21

    def test_registry_order_starts_with_semigroup_facts(self):
        ids = suite_ids()
        assert ids[:3] == ["eigen-ou", "eigen-ph", "stable-derivatives"]
        assert ids[-1] == "interpolation"

    def test_unknown_suite_rejected(self):
        with pytest.raises(ParameterError):
            run_suite("lemma-nonsense")

    def test_unknown_config_key_rejected(self):
        with pytest.raises(ParameterError):
            SuiteConfig.from_dict({"seed": 1, "grid": "fine"})

    def test_config_from_dict_roundtrip(self):
        cfg = SuiteConfig.from_dict({"seed": 7, "n_panels": 80})
        assert cfg.seed == 7
        assert cfg.n_panels == 80
        assert cfg.nodes_per_axis is None


class TestFastSuites:
    @pytest.mark.parametrize("sid", FAST_SUITES)
    def test_suite_passes(self, sid):
        res = run_suite(sid)
        failures = [c.case_id for c in res.cases if not c.passed]
        assert res.passed, f"{sid} failed cases: {failures}"
        assert res.cases
        assert res.anchor

    def test_holder_runs_fifty_cases(self):
        res = run_suite("holder")
        assert len(res.cases) == 50

    def test_minkowski_runs_fifty_cases(self):
        res = run_suite("minkowski")
        assert len(res.cases) == 50


class TestDeterminism:
    def test_same_seed_same_numbers(self):
        a = run_suite("holder", SuiteConfig(seed=3))
        b = run_suite("holder", SuiteConfig(seed=3))
        assert [(c.case_id, c.lhs, c.rhs) for c in a.cases] == [
            (c.case_id, c.lhs, c.rhs) for c in b.cases
        ]

    def test_different_seed_different_numbers(self):
        a = run_suite("holder", SuiteConfig(seed=0))
        b = run_suite("holder", SuiteConfig(seed=1))
        assert [c.lhs for c in a.cases] != [c.lhs for c in b.cases]

    def test_json_report_stable_modulo_wall_time(self):
        dumps = []
        for _ in range(2):
            d = run_suite("lemma-moment").to_dict()
            d.pop("wall_time")
            dumps.append(json.dumps(d, sort_keys=True))
        assert dumps[0] == dumps[1]


class TestReportShape:
    def test_case_dict_has_schema_fields(self):
        res = run_suite("lemma-moment")
        d = res.to_dict()
        assert d["pass"] is True
        assert d["suite_id"] == "lemma-moment"
        case = d["cases"][0]
        for key in ("case_id", "alpha", "k", "p_desc", "q_desc",
                    "lhs", "rhs", "ratio", "pass"):
            assert key in case

    def test_csv_rows_match_header(self):
        res = run_suite("corollary-tv")
        rows = csv_rows([res])
        assert len(CSV_HEADER) == 10
        assert all(len(r) == len(CSV_HEADER) for r in rows)
        assert all(r[0] == "corollary-tv" for r in rows)
        assert {r[-1] for r in rows} <= {"true", "false"}

    def test_csv_empty_fields_for_missing_params(self):
        res = run_suite("lemma-moment")
        row = csv_rows([res])[0]
        # no exponents are involved, so those columns stay empty
        assert row[4] == "" and row[5] == ""
        assert row[3] != ""  # k is meaningful here

    def test_derived_exponents_keep_provenance(self):
        # these suites build Hölder pairs, conjugates, scaled and mixed exponents
        suites = ["holder", "conjugate", "power-identity", "log-convexity", "interpolation"]
        rows = csv_rows([run_suite(sid) for sid in suites])
        labels = {r[4] for r in rows} | {r[5] for r in rows}
        assert "custom" not in labels
        assert any(label.startswith("mix(") for label in labels)
