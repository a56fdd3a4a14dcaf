"""CLI surface: literals, config merging, exit codes, and report artifacts.

Everything runs in-process through main(argv) so exit codes and stdout are
asserted directly; no subprocesses.
"""

import csv
import json

import numpy as np
import pytest

from gvs.cli import main, parse_exponent, parse_function_literal
from gvs.errors import ConvergenceError, ParameterError
from gvs.hermite import HermiteExpansion
from gvs.quadrature import make_context
from gvs.smoothness import SmoothnessParams, besov_norm
from gvs.exponents import make_constant


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestLiterals:
    def test_single_hermite(self):
        f = parse_function_literal("h:3")
        assert f.dim == 1
        assert f.items()[0][0].order == 3

    def test_expansion_pairs_one_dimensional(self):
        f = parse_function_literal("expand:[[1, 1.0], [3, -0.5]]")
        assert f.dim == 1
        assert {nu.order for nu, _ in f.items()} == {1, 3}

    def test_expansion_pairs_two_dimensional(self):
        f = parse_function_literal("expand:[[[1, 2], 0.7]]")
        assert f.dim == 2

    def test_random_family_deterministic(self):
        a = parse_function_literal("family:random:5:42")
        b = parse_function_literal("family:random:5:42")
        assert a.coeffs == b.coeffs

    @pytest.mark.parametrize("bad", [
        "h:two", "expand:{}", "expand:[[1]]", "family:random:5",
        "family:random:x:1", "mystery:3", "expand:[[1,1],[[1,2],1]]",
    ])
    def test_malformed_literals_rejected(self, bad):
        with pytest.raises(ParameterError):
            parse_function_literal(bad)

    def test_exponent_literals(self):
        assert parse_exponent("const:2.5").p_minus == 2.5
        e = parse_exponent("gaussian:2:1")
        assert (e.p_minus, e.p_plus) == (2.0, 3.0)
        t = parse_exponent("time:1.5:3")
        assert t.limit_zero == 1.5 and t.limit_infty == 3.0

    def test_exponent_descriptor_dict(self):
        e = parse_exponent({"kind": "constant", "params": [2.0]})
        assert e.p_minus == 2.0

    @pytest.mark.parametrize("bad", ["const", "const:x", "poly:2", "gaussian:2"])
    def test_malformed_exponents_rejected(self, bad):
        with pytest.raises(ParameterError):
            parse_exponent(bad)


class TestNormCommand:
    def test_lp_norm_of_first_hermite_is_one(self, capsys):
        code, out, _ = run_cli(capsys, "norm", "--space", "lp",
                               "--f", "h:1", "--p", "const:2")
        assert code == 0
        d = json.loads(out)
        assert d["value"] == pytest.approx(1.0, rel=1e-9)
        assert d["modular_at_value"] == pytest.approx(1.0, rel=1e-8)

    def test_besov_norm_matches_library(self, capsys):
        code, out, _ = run_cli(capsys, "norm", "--space", "besov", "--f", "h:2",
                               "--alpha", "0.5", "--p", "const:2", "--q", "const:2")
        assert code == 0
        d = json.loads(out)
        rep = besov_norm(
            HermiteExpansion.single((2,)),
            SmoothnessParams(alpha=0.5, p=make_constant(2.0), q=make_constant(2.0)),
            make_context(dim=1),
        )
        assert d["total"] == pytest.approx(rep.total, rel=1e-12)
        assert d["k"] == 1

    def test_missing_alpha_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "norm", "--space", "besov", "--f", "h:2",
                               "--p", "const:2", "--q", "const:2")
        assert code == 2
        assert "alpha" in err

    def test_negative_alpha_exits_two(self, capsys):
        code, _, _ = run_cli(capsys, "norm", "--space", "besov", "--f", "h:2",
                             "--alpha", "-1", "--p", "const:2", "--q", "const:2")
        assert code == 2

    def test_time_exponent_on_gaussian_space_exits_two(self, capsys):
        code, _, _ = run_cli(capsys, "norm", "--space", "lp",
                             "--f", "h:1", "--p", "time:1.5:3")
        assert code == 2

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "space": "besov", "f": "h:2", "alpha": 0.5,
            "p": "const:2", "q": {"kind": "time", "params": [1.5, 2.5]},
            "n_panels": 100,
        }))
        code, out, _ = run_cli(capsys, "norm", "--config", str(cfg), "--alpha", "0.8")
        assert code == 0
        d = json.loads(out)
        assert d["alpha"] == 0.8
        assert d["grid_meta"]["n_panels"] == 100

    def test_bad_config_file_exits_two(self, capsys, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        code, _, _ = run_cli(capsys, "norm", "--config", str(cfg))
        assert code == 2

    @pytest.mark.parametrize("p", [
        {"kind": "constant", "params": 2},
        {"kind": "gaussian", "params": [2, "x"]},
        {"kind": "gaussian", "params": [2, True]},
        {"kind": "mix", "const": "0", "terms": [[1, {"kind": "constant", "params": [2]}]]},
        {"kind": "mix", "const": 0, "terms": []},
        {"kind": "mix", "const": 0, "terms": [[1, {"kind": "constant", "params": [2]}, 3]]},
        {"kind": "mix", "const": 0, "terms": {"a": 1}},
    ])
    def test_malformed_descriptor_in_config_exits_two(self, capsys, tmp_path, p):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"space": "lp", "f": "h:1", "p": p}))
        code, _, err = run_cli(capsys, "norm", "--config", str(cfg))
        assert code == 2
        assert err.startswith("error:")

    def test_mix_descriptor_in_config(self, capsys, tmp_path):
        # 1/p = 1 - 1/2: the conjugate of 2 is 2, and ||h_1||_2 = 1
        conj = {"kind": "mix", "const": 1.0,
                "terms": [[-1.0, {"kind": "constant", "params": [2.0]}]]}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"space": "lp", "f": "h:1", "p": conj}))
        code, out, _ = run_cli(capsys, "norm", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(1.0, rel=1e-9)

    def test_labels_come_from_the_parsed_descriptor(self, capsys, tmp_path):
        conj = {"kind": "mix", "const": 1.0,
                "terms": [[-1.0, {"kind": "constant", "params": [2.0]}]]}
        path = tmp_path / "norm.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"space": "besov", "f": "h:1", "alpha": 0.5,
                                   "p": conj, "q": "const:2", "csv": str(path)}))
        code, out, _ = run_cli(capsys, "norm", "--config", str(cfg))
        assert code == 0
        d = json.loads(out)
        assert d["p_desc"] == "mix(1-1/constant:2)"
        assert d["q_desc"] == "constant:2"
        rows = list(csv.DictReader(path.open()))
        assert (rows[0]["p_desc"], rows[0]["q_desc"]) == (d["p_desc"], d["q_desc"])

    def test_norm_csv_artifact(self, capsys, tmp_path):
        path = tmp_path / "norm.csv"
        code, _, _ = run_cli(capsys, "norm", "--space", "lp", "--f", "h:1",
                             "--p", "const:2", "--csv", str(path))
        assert code == 0
        rows = list(csv.reader(path.open()))
        assert rows[0][0] == "suite_id"
        assert rows[1][0] == "norm:lp"
        assert len(rows) == 2


class TestSemigroupCommand:
    def test_spectral_matches_quadrature(self, capsys):
        argv = ["semigroup", "--kind", "ph", "--f", "h:2", "--t", "0.8",
                "--points", "0.0,0.7,1.4"]
        _, out_s, _ = run_cli(capsys, *argv, "--method", "spectral")
        _, out_q, _ = run_cli(capsys, *argv, "--method", "quadrature")
        vs = np.array(json.loads(out_s)["values"])
        vq = np.array(json.loads(out_q)["values"])
        assert np.max(np.abs(vs - vq)) < 1e-6

    def test_derivative_of_constant_vanishes(self, capsys):
        code, out, _ = run_cli(capsys, "semigroup", "--kind", "ph", "--f", "h:0",
                               "--t", "1.0", "--k", "2", "--points", "0.3")
        assert code == 0
        assert json.loads(out)["values"] == [0.0]

    def test_quadrature_path_rejects_derivatives(self, capsys):
        code, _, _ = run_cli(capsys, "semigroup", "--kind", "ph", "--f", "h:1",
                             "--k", "1", "--method", "quadrature")
        assert code == 2

    @pytest.mark.parametrize("t", ["1e-300", "1e-3", "0.05", "0.5", "2"])
    def test_ou_quadrature_matches_spectral_at_every_time(self, capsys, t):
        argv = ["semigroup", "--kind", "ou", "--f", "h:3", "--t", t,
                "--points", "0.5,-1.3,2.1"]
        _, out_s, _ = run_cli(capsys, *argv, "--method", "spectral")
        code, out_q, _ = run_cli(capsys, *argv, "--method", "quadrature")
        assert code == 0
        vs = np.array(json.loads(out_s)["values"])
        vq = np.array(json.loads(out_q)["values"])
        assert np.max(np.abs(vs - vq)) < 1e-8

    @pytest.mark.parametrize("kind", ["ou", "ph"])
    @pytest.mark.parametrize("method", ["spectral", "quadrature"])
    def test_non_finite_input_exits_two(self, capsys, kind, method):
        base = ["semigroup", "--kind", kind, "--f", "h:2", "--method", method]
        for extra in (["--points", "nan"], ["--points", "0.1,inf"], ["--t", "nan"], ["--t", "inf"]):
            code, out, err = run_cli(capsys, *base, *extra)
            assert code == 2, extra
            assert out == "" and err.startswith("error:")

    @pytest.mark.parametrize("points", ['["a"]', "[[0.1], [0.2, 0.3]]"])
    def test_malformed_points_exit_two(self, capsys, points):
        code, _, err = run_cli(capsys, "semigroup", "--kind", "ph", "--f", "h:2",
                               "--points", points)
        assert code == 2 and err.startswith("error:")

    def test_json_points_two_dimensional(self, capsys):
        code, out, _ = run_cli(capsys, "semigroup", "--kind", "ou",
                               "--f", "expand:[[[1,1],1.0]]", "--t", "0.5",
                               "--points", "[[0.1, 0.2], [1.0, -0.3]]")
        assert code == 0
        assert len(json.loads(out)["values"]) == 2


class TestVerifyCommand:
    def test_single_suite_json_shape(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "lemma-moment")
        assert code == 0
        d = json.loads(out)
        assert d["suite_id"] == "lemma-moment"
        assert d["pass"] is True
        assert d["anchor"]
        assert all("lhs" in c and "rhs" in c for c in d["cases"])

    def test_unknown_suite_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "verify", "lemma-nonsense")
        assert code == 2
        assert "unknown suite" in err

    def test_no_suites_exits_two(self, capsys):
        code, _, _ = run_cli(capsys, "verify")
        assert code == 2

    def test_multi_suite_deterministic_modulo_wall_time(self, capsys):
        dumps = []
        for _ in range(2):
            code, out, _ = run_cli(capsys, "verify", "holder", "corollary-tv",
                                   "--seed", "5")
            assert code == 0
            d = json.loads(out)
            for r in d["results"]:
                r.pop("wall_time")
            dumps.append(json.dumps(d, sort_keys=True))
        assert dumps[0] == dumps[1]

    def test_csv_table(self, capsys, tmp_path):
        path = tmp_path / "out.csv"
        code, _, _ = run_cli(capsys, "verify", "holder", "--csv", str(path))
        assert code == 0
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["suite_id", "case_id", "alpha", "k", "p_desc",
                           "q_desc", "lhs", "rhs", "ratio", "pass"]
        assert len(rows) == 51

    def test_failure_maps_to_exit_one(self, capsys, monkeypatch):
        import gvs.cli as cli_mod
        from gvs.suites import CaseResult, SuiteResult

        def fake(sid, cfg):
            bad = CaseResult("c0", None, None, "", "", 2.0, 1.0, 2.0, False)
            return SuiteResult(sid, "forced failure", [bad], {}, 0.0)

        monkeypatch.setattr(cli_mod, "run_suite", fake)
        code, out, _ = run_cli(capsys, "verify", "holder")
        assert code == 1
        assert json.loads(out)["pass"] is False

    def test_convergence_error_maps_to_exit_three(self, capsys, monkeypatch):
        import gvs.cli as cli_mod

        def explode(sid, cfg):
            raise ConvergenceError("did not settle")

        monkeypatch.setattr(cli_mod, "run_suite", explode)
        code, _, err = run_cli(capsys, "verify", "holder")
        assert code == 3
        assert "did not settle" in err


class TestReportCommand:
    def test_report_writes_artifacts(self, capsys, tmp_path):
        csv_path = tmp_path / "rep.csv"
        json_path = tmp_path / "rep.json"
        code, out, _ = run_cli(capsys, "report", "lemma-moment", "corollary-tv",
                               "--csv", str(csv_path), "--json", str(json_path))
        assert code == 0
        assert "all suites pass" in out
        rows = list(csv.reader(csv_path.open()))
        assert len(rows) == 1 + 17 + 4
        d = json.loads(json_path.read_text())
        assert d["pass"] is True
        assert [r["suite_id"] for r in d["results"]] == ["lemma-moment", "corollary-tv"]

    def test_parallel_runs_match_serial(self, capsys, tmp_path):
        a = tmp_path / "serial.csv"
        b = tmp_path / "parallel.csv"
        run_cli(capsys, "report", "lemma-moment", "stable-derivatives",
                "--csv", str(a))
        run_cli(capsys, "report", "lemma-moment", "stable-derivatives",
                "--csv", str(b), "--parallel", "2")
        assert a.read_text() == b.read_text()
