import gzip
import json

import numpy as np
import pytest
from click.testing import CliRunner

from hoq import LabeledOperator, NetworkSpec, SystemRegistry, dual
from hoq.cli import main
from hoq.membership import sample_deterministic
from hoq.serialize import (
    Config,
    bundle_to_dict,
    operator_from_dict,
    operator_to_dict,
    parse_config,
    parse_inline_registry,
    read_operator,
    write_operator,
)
from hoq.typesys import BistochElem
from hoq.errors import ConfigError

from helpers import NON_FINITE, non_finite_operator


@pytest.fixture
def runner():
    return CliRunner()


REG_FLIP = "A=2,B=2,P=4,F=4"


class TestSerialization:
    def test_operator_roundtrip(self, tmp_path, rng):
        g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        op = LabeledOperator((("A", 2), ("B", 3)), g)
        path = tmp_path / "op.json"
        write_operator(op, str(path))
        back = read_operator(str(path))
        assert back.factors == op.factors
        assert np.array_equal(back.data, op.data)  # exact float round trip

    def test_gzip_container(self, tmp_path, rng):
        op = LabeledOperator((("A", 2),), np.eye(2) / 3)
        path = tmp_path / "op.json.gz"
        write_operator(op, str(path))
        with gzip.open(path, "rt") as fh:
            payload = json.load(fh)
        assert payload["factors"] == [["A", 2]]
        assert np.array_equal(read_operator(str(path)).data, op.data)

    def test_dict_shapes(self):
        op = LabeledOperator((("A", 2),), np.array([[1, 2j], [-2j, 0.5]]))
        payload = operator_to_dict(op)
        assert payload["matrix"][0][1] == [0.0, 2.0]
        assert np.array_equal(operator_from_dict(payload).data, op.data)

    def test_config_parsing(self):
        cfg = parse_config("""
# comment
registry.A = 2
registry.B = 2
tol.psd = 1e-8
limits.max_iter = 99
""")
        assert cfg.registry.dim("A") == 2
        assert cfg.tol_psd == 1e-8
        assert cfg.max_iter == 99
        with pytest.raises(ConfigError):
            parse_config("nonsense.key = 3")
        with pytest.raises(ConfigError):
            parse_config("tol.wat = 1")
        with pytest.raises(ConfigError):
            parse_config("just a line")

    def test_inline_registry(self):
        assert parse_inline_registry("A=2, B=3") == {"A": 2, "B": 3}
        with pytest.raises(ConfigError):
            parse_inline_registry("A:2")


class TestLambdaDelta:
    def test_lambda_pair(self, runner):
        res = runner.invoke(main, ["lambda", "(^A -> ^B)", "--registry", "A=2,B=2"])
        assert res.exit_code == 0 and res.output.strip() == "1/2"

    def test_lambda_flip_type(self, runner):
        res = runner.invoke(main, ["lambda", "((^A -> ^B) -> (P -> F))",
                                   "--registry", REG_FLIP])
        assert res.output.strip() == "1/8"

    def test_delta_pair(self, runner):
        res = runner.invoke(main, ["delta", "(^A -> ^B)", "--registry", "A=2,B=2"])
        assert res.output.split("\n")[0] == "A:T B:T"

    def test_delta_dual_pair(self, runner):
        res = runner.invoke(main, ["delta", "((^A -> ^B) -> I)",
                                   "--registry", "A=2,B=2"])
        assert res.output.strip().split("\n") == ["A:T B:I", "A:I B:T"]

    def test_delta_standard_hierarchy_dehats(self, runner):
        res = runner.invoke(main, ["delta", "(^A -> ^B)", "--registry", "A=2,B=2",
                                   "--hierarchy", "standard"])
        assert res.output.strip().split("\n") == ["A:T B:T", "A:I B:T"]

    def test_parse_error_exit_2(self, runner):
        res = runner.invoke(main, ["lambda", "(^A -> ", "--registry", "A=2"])
        assert res.exit_code == 2

    def test_unknown_system_exit_2(self, runner):
        res = runner.invoke(main, ["lambda", "(^A -> ^B)", "--registry", "A=2"])
        assert res.exit_code == 2


class TestCheckCommand:
    def test_flip_passes_and_fails_standard(self, runner, tmp_path):
        out = tmp_path / "flip.json"
        res = runner.invoke(main, ["make", "time-flip", "--d", "2", "-o", str(out)])
        assert res.exit_code == 0
        res = runner.invoke(main, ["check", "((^A -> ^B) -> (P -> F))",
                                   "-f", str(out), "--registry", REG_FLIP])
        assert res.exit_code == 0, res.output
        res = runner.invoke(main, ["check", "((^A -> ^B) -> (P -> F))",
                                   "-f", str(out), "--registry", REG_FLIP,
                                   "--hierarchy", "standard", "--json"])
        assert res.exit_code == 1
        payload = json.loads(res.output)
        pats = [p for p, _ in payload["forbidden_components"]]
        assert pats and all("A:I" in p and "B:T" in p and "F:I" in p for p in pats)

    def test_empty_file_exit_2(self, runner, tmp_path):
        bad = tmp_path / "empty.json"
        bad.write_text("")
        res = runner.invoke(main, ["check", "A", "-f", str(bad), "--registry", "A=2"])
        assert res.exit_code == 2

    @pytest.mark.parametrize("where", sorted(NON_FINITE))
    def test_non_finite_operator_exit_2(self, runner, tmp_path, where):
        path = tmp_path / "bad.json"
        write_operator(non_finite_operator(where), str(path))
        res = runner.invoke(main, ["check", "(^A -> ^B)", "-f", str(path),
                                   "--registry", "A=2,B=2"])
        assert res.exit_code == 2
        assert "non-finite" in res.output

    def test_json_report_names_psd_method(self, runner, tmp_path):
        path = tmp_path / "state.json"
        write_operator(LabeledOperator((("A", 2),), np.eye(2) / 2), str(path))
        res = runner.invoke(main, ["check", "A", "-f", str(path), "--registry", "A=2",
                                   "--json"])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["psd_method"] == "cholesky" and payload["min_eigenvalue"] == -1e-9

    def test_admissible_mode_exit_codes(self, runner, tmp_path):
        ok = tmp_path / "state.json"
        write_operator(LabeledOperator((("A", 2),), np.eye(2) / 4), str(ok))
        res = runner.invoke(main, ["check", "A", "-f", str(ok),
                                   "--registry", "A=2", "--admissible"])
        assert res.exit_code == 0
        big = tmp_path / "big.json"
        write_operator(LabeledOperator((("A", 2),), np.eye(2)), str(big))
        res = runner.invoke(main, ["check", "A", "-f", str(big),
                                   "--registry", "A=2", "--admissible"])
        assert res.exit_code == 1
        # no trace fast path for hatted pairs: an oversized identity event
        # cannot be certified either way, which is exit code 3
        und = tmp_path / "und.json"
        write_operator(LabeledOperator((("A", 2), ("B", 2)), np.eye(4)), str(und))
        res = runner.invoke(main, ["check", "(^A -> ^B)", "-f", str(und),
                                   "--registry", "A=2,B=2", "--admissible"])
        assert res.exit_code == 3

    def test_network_spec_mode(self, runner, tmp_path):
        reg = SystemRegistry.of(A1=2, B1=2, P=2, F=2)
        spec = NetworkSpec((dual(BistochElem("A1", (), "B1", ())),), ("P", "F"))
        op = sample_deterministic(spec, reg, eps=0.4, seed=2)
        opf = tmp_path / "net.json"
        write_operator(op, str(opf))
        specf = tmp_path / "spec.json"
        specf.write_text(json.dumps(
            {"slot_types": ["((^A1 -> ^B1) -> I)"], "memories": ["P", "F"]}))
        res = runner.invoke(main, ["check", "-f", str(opf),
                                   "--network-spec", str(specf),
                                   "--registry", "A1=2,B1=2,P=2,F=2"])
        assert res.exit_code == 0, res.output


class TestMakeAndClassify:
    def test_make_lc23(self, runner, tmp_path):
        out = tmp_path / "r2.json"
        res = runner.invoke(main, ["make", "lc23", "--n", "2", "-o", str(out)])
        assert res.exit_code == 0
        op = read_operator(str(out))
        assert op.dim == 16
        assert abs(op.trace() - 4) < 1e-12
        assert np.abs(op.data - np.diag(np.diag(op.data))).max() == 0

    def test_classify_lc23(self, runner, tmp_path):
        out = tmp_path / "r2.json"
        runner.invoke(main, ["make", "lc23", "--n", "2", "-o", str(out)])
        t = "((((^A1 -> ^B1) -> ((^A2 -> ^B2) -> I)) -> I) -> I)"
        res = runner.invoke(main, ["classify", t, "-f", str(out),
                                   "--registry", "A1=2,B1=2,A2=2,B2=2"])
        assert res.exit_code == 0
        assert res.output.splitlines()[0] == "BISTOCH_ONLY"
        assert any("A1:T B1:T A2:I B2:T" in line for line in res.output.splitlines())

    def test_make_n_time_flip_and_switch(self, runner, tmp_path):
        for proc, args, dim in (("n-time-flip", ["--n", "2", "--d", "2"], 1024),
                                ("flip-switch", ["--d", "2"], 256)):
            out = tmp_path / f"{proc}.json"
            res = runner.invoke(main, ["make", proc, *args, "-o", str(out)])
            assert res.exit_code == 0, res.output
            op = read_operator(str(out))
            assert op.dim == dim
            assert op.labels[-2:] == ("P", "F")

    def test_make_deterministic_given_seed(self, runner, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path in (a, b):
            runner.invoke(main, ["make", "random-bistoch", "--d", "2",
                                 "--seed", "11", "-o", str(path)])
        assert a.read_text() == b.read_text()

    def test_apply_flip(self, runner, tmp_path):
        from hoq.linalg import choi_of_kraus
        chan = tmp_path / "chan.json"
        write_operator(choi_of_kraus([np.eye(2)], "A", "B"), str(chan))
        state = tmp_path / "rho.json"
        write_operator(LabeledOperator((("R", 2),), np.diag([0.25, 0.75])), str(state))
        ctrl = tmp_path / "w.json"
        write_operator(LabeledOperator((("W", 2),), np.diag([0.5, 0.5])), str(ctrl))
        out = tmp_path / "out.json"
        res = runner.invoke(main, ["apply-flip", "--channel", str(chan),
                                   "--state", str(state), "--control", str(ctrl),
                                   "-o", str(out)])
        assert res.exit_code == 0
        got = read_operator(str(out))
        assert np.abs(got.data - np.kron(np.diag([0.25, 0.75]),
                                         np.diag([0.5, 0.5]))).max() < 1e-12


class TestComposeDecompose:
    def test_roundtrip_bundle(self, runner, tmp_path):
        reg = SystemRegistry.of(A1=2, B1=2, A2=2, B2=2, E1=2, P=2, F=2)
        spec = NetworkSpec(
            (dual(BistochElem("A1", (), "B1", ())),
             dual(BistochElem("A2", (), "B2", ()))),
            ("P", "E1", "F"))
        blocks = [sample_deterministic(spec.block_type(i), reg, eps=0.5, seed=3 + i)
                  for i in range(2)]
        bundle = tmp_path / "bundle.json"
        bundle.write_text(json.dumps(bundle_to_dict(blocks, spec)))
        reg_arg = "A1=2,B1=2,A2=2,B2=2,E1=2,P=2,F=2"

        r1 = tmp_path / "r1.json"
        res = runner.invoke(main, ["compose", str(bundle), "-o", str(r1),
                                   "--registry", reg_arg])
        assert res.exit_code == 0, res.output

        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({
            "slot_types": ["((^A1 -> ^B1) -> I)", "((^A2 -> ^B2) -> I)"],
            "memories": ["P", "E1", "F"],
        }))
        bundle2 = tmp_path / "bundle2.json"
        res = runner.invoke(main, ["decompose", "--spec", str(spec_file),
                                   "-f", str(r1), "-o", str(bundle2),
                                   "--registry", reg_arg])
        assert res.exit_code == 0, res.output

        r2 = tmp_path / "r2.json"
        res = runner.invoke(main, ["compose", str(bundle2), "-o", str(r2),
                                   "--registry", reg_arg])
        assert res.exit_code == 0, res.output
        first = read_operator(str(r1))
        second = read_operator(str(r2))
        assert first.factors == second.factors
        assert np.abs(first.data - second.data).max() < 1e-8

    def test_config_file_and_env(self, runner, tmp_path, monkeypatch):
        cfg = tmp_path / "hoq.cfg"
        cfg.write_text("registry.A = 2\nregistry.B = 2\n")
        res = runner.invoke(main, ["lambda", "(^A -> ^B)", "--config", str(cfg)])
        assert res.output.strip() == "1/2"
        monkeypatch.setenv("HOQ_CONFIG", str(cfg))
        res = runner.invoke(main, ["lambda", "(^A -> ^B)"])
        assert res.output.strip() == "1/2"
