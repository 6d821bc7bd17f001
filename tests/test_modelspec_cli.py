"""JSON model specs and the command-line front end, including exit codes."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from nfgdual import cli, oracle
from nfgdual.bp import BpConfig, DegenerateMessageError
from nfgdual.cli import main
from nfgdual.gaussian import GmrfModel
from nfgdual.modelspec import (
    MODEL_SPEC_SCHEMA,
    SpecError,
    build_graph,
    build_model,
    resolve_couplings,
    validate_spec,
)
from nfgdual.graphs import ring_graph
from nfgdual.nfg import PrimalNFG, clock_model, ising_model
from nfgdual.samplers import SamplerConfig


def write_spec(tmp_path, name, spec):
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return str(path)


def unwritable_out(tmp_path, where):
    """(an --out path that cannot be written, the path its refusal names)."""
    out, named = tmp_path / "c.csv", tmp_path / "c.schema.json"
    if where == "directory":
        out = named = tmp_path
    elif where == "missing_parent":
        out = named = tmp_path / "missing" / "c.csv"
    elif where == "under_a_file":
        (tmp_path / "f").write_text("")
        out = named = tmp_path / "f" / "c.csv"
    else:
        named.mkdir()
    return out, named


TRIANGLE_SPEC = {
    "family": "ising",
    "topology": {"type": "ring", "n": 3},
    "couplings": 0.5,
    "fields": 0.2,
}
SPECS = Path(__file__).resolve().parents[1] / "specs"
# `nfgdual exact --spec specs/potts_frustrated_triangle.json`, as printed when
# the residual came from its own duality_check enumerations
EXACT_POTTS_TRIANGLE = """\
Z_p = 54.34803624
duality residual |Z_d - alpha Z_p| / |Z_p| = 2.092e-15
primal edge marginals:
  [  0] 0.3330995655  0.3334502172  0.3334502172
  [  1] 0.5102057874  0.2448971063  0.2448971063
  [  2] 0.5102057874  0.2448971063  0.2448971063
primal vertex marginals:
  [  0] 0.3620287273  0.3189856363  0.3189856363
  [  1] 0.3620287273  0.3189856363  0.3189856363
  [  2] 0.3682168909  0.3158915545  0.3158915545
dual edge marginals:
  [  0] 1.013899877  -0.00694993865  -0.00694993865
  [  1] 1.012783918  -0.006391959174  -0.006391959174
  [  2] 1.012783918  -0.006391959174  -0.006391959174
dual vertex marginals:
  [  0] 0.9993976159  0.0003011920702  0.0003011920702
  [  1] 0.9993976159  0.0003011920702  0.0003011920702
  [  2] 0.9987880898  0.0006059550856  0.0006059550856
"""
CLOCK_SPEC = {
    "family": "clock", "q": 4,
    "topology": {"type": "ring", "n": 3},
    "couplings": 0.5, "fields": [0.1, 0.2, 0.3],
}


class TestSpecValidation:
    def test_valid_spec_passes(self):
        validate_spec(TRIANGLE_SPEC)

    def test_unknown_family_rejected(self):
        with pytest.raises(SpecError, match="invalid model spec"):
            validate_spec({"family": "xy", "topology": {"type": "ring", "n": 3}})

    def test_unknown_key_rejected(self):
        bad = dict(TRIANGLE_SPEC, beta=1.0)
        with pytest.raises(SpecError):
            validate_spec(bad)

    def test_random_couplings_require_seed(self):
        bad = dict(TRIANGLE_SPEC, couplings={"random": "uniform", "low": 0, "high": 1})
        with pytest.raises(SpecError):
            validate_spec(bad)

    def test_schema_is_itself_valid(self):
        from jsonschema import Draft202012Validator

        Draft202012Validator.check_schema(MODEL_SPEC_SCHEMA)

    def test_documented_schema_is_the_enforced_one(self):
        path = Path(__file__).resolve().parents[1] / "docs" / "model_spec.schema.json"
        assert json.loads(path.read_text()) == MODEL_SPEC_SCHEMA


class TestTopologies:
    def test_builders(self):
        assert build_graph({"type": "grid", "rows": 2, "cols": 3}).num_edges == 7
        assert build_graph({"type": "ring", "n": 5}).num_edges == 5
        assert build_graph({"type": "path", "n": 5}).num_edges == 4
        assert build_graph({"type": "complete", "n": 4}).num_edges == 6
        g = build_graph({"type": "edge_list", "num_vertices": 3,
                         "edges": [[0, 1], [1, 2]]})
        assert g.num_vertices == 3

    def test_missing_field(self):
        with pytest.raises(SpecError, match="missing"):
            build_graph({"type": "ring"})


class TestCouplings:
    def test_scalar_broadcast(self):
        spec = {"family": "ising", "topology": {"type": "ring", "n": 4}, "couplings": 0.3}
        want = ising_model(ring_graph(4), 0.3)
        assert np.array_equal(build_model(spec).edge_tables, want.edge_tables)

    def test_per_edge_length_checked(self):
        # the model builder's check is the only one, for couplings and fields alike
        spec = {"family": "ising", "topology": {"type": "ring", "n": 4}, "couplings": [0.1, 0.2]}
        message = "expected 4 per-edge values, got shape (2,)"
        with pytest.raises(ValueError, match=re.escape(message)):
            build_model(spec)

    def test_per_vertex_fields_length_checked(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "m.json", {**TRIANGLE_SPEC, "fields": [0.1, 0.2]})
        assert main(["model", "--spec", spec]) == 4
        assert ("bad input: expected 3 per-vertex values, got shape (2,)"
                in capsys.readouterr().err)

    def test_half_normal_draw_is_seeded(self):
        spec = {"random": "half_normal", "sigma2": 0.9, "seed": 5}
        a = resolve_couplings(spec, 6)
        b = resolve_couplings(spec, 6)
        assert np.array_equal(a, b)
        assert (a >= 0).all()

    def test_uniform_draw_range(self):
        spec = {"random": "uniform", "low": 0.05, "high": 0.3, "seed": 2}
        vals = resolve_couplings(spec, 100)
        assert vals.min() >= 0.05 and vals.max() <= 0.3


class TestBuildModel:
    def test_ising(self):
        model = build_model(TRIANGLE_SPEC)
        assert isinstance(model, PrimalNFG)
        assert model.alphabet.q == 2

    def test_potts_needs_q(self):
        with pytest.raises(SpecError, match="needs q"):
            build_model({"family": "potts", "topology": {"type": "ring", "n": 3}})

    def test_clock_takes_fields(self):
        model = build_model(CLOCK_SPEC)
        want = clock_model(ring_graph(3), 4, 0.5, [0.1, 0.2, 0.3])
        assert np.array_equal(model.edge_tables, want.edge_tables)
        assert np.array_equal(model.vertex_tables, want.vertex_tables)

    def test_gaussian(self):
        model = build_model({
            "family": "gaussian",
            "topology": {"type": "path", "n": 4},
            "gaussian": {"s": 2.0, "sigma": 1.5},
        })
        assert isinstance(model, GmrfModel)
        assert model.s == 2.0


class TestCli:
    def test_option_defaults_are_the_config_defaults(self):
        parser = cli.build_parser()
        bp, config = parser.parse_args(["bp", "--spec", "m.json"]), BpConfig()
        assert (bp.damping, bp.tol, bp.max_iters) == (config.damping, config.tol,
                                                       config.max_iters)
        for command in ("gibbs", "swp"):
            args = parser.parse_args([command, "--spec", "m.json"])
            assert args.samples == SamplerConfig(seed=args.seed).samples

    def test_model_command(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "m.json", TRIANGLE_SPEC)
        assert main(["model", "--spec", spec]) == 0
        out = capsys.readouterr().out
        assert "alpha: 2" in out
        assert "betti number: 1" in out

    def test_exact_command_reports_duality(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "m.json", TRIANGLE_SPEC)
        assert main(["exact", "--spec", spec]) == 0
        out = capsys.readouterr().out
        assert "duality residual" in out

    def test_exact_enumerates_each_domain_once(self, monkeypatch, capsys):
        enumerate_ = oracle._enumerate
        domains = []

        def counting(model, *args, **kwargs):
            domains.append(model.domain)
            return enumerate_(model, *args, **kwargs)

        monkeypatch.setattr(oracle, "_enumerate", counting)
        assert main(["exact", "--spec", str(SPECS / "potts_frustrated_triangle.json")]) == 0
        assert domains == ["primal", "dual"]
        assert capsys.readouterr().out == EXACT_POTTS_TRIANGLE

    def test_bp_command(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "m.json", TRIANGLE_SPEC)
        assert main(["bp", "--spec", spec, "--domain", "dual"]) == 0
        assert "converged: True" in capsys.readouterr().out

    def test_gibbs_and_swp_commands(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "m.json", TRIANGLE_SPEC)
        assert main(["gibbs", "--spec", spec, "--samples", "500"]) == 0
        assert main(["swp", "--spec", spec, "--samples", "500", "--map"]) == 0
        assert "mapped from the dual" in capsys.readouterr().out

    def test_swp_on_binary_potts(self, tmp_path, capsys):
        # a binary model with a positive dual but no [e^b, e^-b] tables
        spec = write_spec(tmp_path, "m.json", {
            "family": "potts", "q": 2,
            "topology": {"type": "grid", "rows": 2, "cols": 2, "periodic": True},
            "couplings": 0.6, "fields": 0.25})
        assert main(["swp", "--spec", spec, "--samples", "500", "--map"]) == 0
        assert "mapped from the dual" in capsys.readouterr().out

    def test_map_command(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "m.json", TRIANGLE_SPEC)
        assert main([
            "map", "--spec", spec, "--location", "edge:0",
            "--direction", "dual-to-primal", "--marginal", "0.9,0.1",
        ]) == 0
        values = [float(v) for v in capsys.readouterr().out.split()]
        assert sum(values) == pytest.approx(1.0, abs=1e-9)

    def test_map_clock_vertex_in_field(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "c.json", CLOCK_SPEC)
        assert main([
            "map", "--spec", spec, "--location", "vertex:0",
            "--direction", "dual-to-primal", "--marginal", "0.7,0.1,0.1,0.1",
        ]) == 0
        values = [float(v) for v in capsys.readouterr().out.split()]
        assert len(values) == 4
        assert sum(values) == pytest.approx(1.0, abs=1e-6)  # entries near 10, 10 digits printed

    @pytest.mark.parametrize("location, spec, cause", [
        ("vertex:1", dict(TRIANGLE_SPEC, fields=[0.2, 0.0, 0.3]), "zero external field"),
        ("edge:2", dict(TRIANGLE_SPEC, couplings=[0.5, 0.4, 0.0]), "zero-coupling edges"),
    ])
    def test_singular_map_names_its_cause(self, tmp_path, capsys, location, spec, cause):
        path = write_spec(tmp_path, "s.json", spec)
        assert main([
            "map", "--spec", path, "--location", location,
            "--direction", "dual-to-primal", "--marginal", "0.9,0.1",
        ]) == 4
        err = capsys.readouterr().err
        assert f"dual {location.replace(':', ' ')} table has a zero entry" in err
        assert cause in err
        assert ("coupling" in err) == (cause == "zero-coupling edges")

    @pytest.mark.parametrize("location", ["edge:99", "edge:-1", "vertex:3"])
    def test_map_location_out_of_range(self, tmp_path, capsys, location):
        spec = write_spec(tmp_path, "m.json", TRIANGLE_SPEC)
        assert main([
            "map", "--spec", spec, "--location", location, "--marginal", "0.9,0.1",
        ]) == 4
        assert "numbered 0 to 2" in capsys.readouterr().err

    def test_gaussian_command(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "g.json", {
            "family": "gaussian",
            "topology": {"type": "grid", "rows": 3, "cols": 3, "periodic": True},
            "gaussian": {"s": 1.0, "sigma": 5.0},
        })
        assert main(["gaussian", "--spec", spec]) == 0
        assert "exact primal variances" in capsys.readouterr().out

    def test_gaussian_dual_precision_not_positive_definite_exit_code(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "g.json", {
            "family": "gaussian",
            "topology": {"type": "grid", "rows": 4, "cols": 4, "periodic": True},
            "gaussian": {"s": 1e-8, "sigma": 1e8},
        })
        assert main(["gaussian", "--spec", spec]) == 4
        assert ("precision must be positive definite (its Cholesky factorization failed)"
                in capsys.readouterr().err)

    def test_gaussian_with_infinite_s_exit_code(self, tmp_path, capsys):
        # JSON's Infinity passes the schema's exclusiveMinimum
        spec = write_spec(tmp_path, "g.json", {
            "family": "gaussian",
            "topology": {"type": "grid", "rows": 3, "cols": 3, "periodic": True},
            "gaussian": {"s": float("inf"), "sigma": 5.0},
        })
        assert main(["gaussian", "--spec", spec]) == 4
        captured = capsys.readouterr()
        assert "s must be positive" in captured.err
        assert "nan" not in captured.out

    def test_exact_non_finite_table_exit_code(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "m.json", {
            "family": "ising",
            "topology": {"type": "ring", "n": 4},
            "couplings": [800, 0.3, 0.2, 0.1],
            "fields": 0.1,
        })
        assert main(["exact", "--spec", spec]) == 4
        assert "edge 0 table is not finite" in capsys.readouterr().err

    def test_exact_unsatisfiable_exit_code(self, tmp_path, capsys):
        # e^-800 underflows to 0, so no configuration of the odd ring has weight
        spec = write_spec(tmp_path, "m.json", {
            "family": "potts", "q": 2, "topology": {"type": "ring", "n": 3}, "couplings": -800,
        })
        assert main(["exact", "--spec", spec]) == 4
        captured = capsys.readouterr()
        assert "bad input: primal partition function is Z = 0" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command,code,cause", [
        (["exact"], 4, "bad input: primal enumeration overflows"),
        (["gibbs", "--samples", "2000"], 4, "bad input: the conditional of vertex 1 overflows"),
        (["bp", "--domain", "dual"], 5, "BP failure: message at edge 0 is not finite"),
    ], ids=["exact", "gibbs", "bp-dual"])
    def test_overflowing_weights_exit_code(self, tmp_path, capsys, command, code, cause):
        # finite tables whose products overflow: exact printed Z_p = nan+nanj
        # and gibbs reported vertices 0 and 1 as [0, 1], both exiting 0; dual
        # BP refused after a numpy RuntimeWarning, an error under -W error
        # and under this suite's warning filter
        spec = write_spec(tmp_path, "m.json", {
            "family": "ising",
            "topology": {"type": "ring", "n": 4},
            "couplings": [709.5, 0.3, 0.2, 0.1],
            "fields": 0.1,
        })
        assert main([command[0], "--spec", spec, *command[1:]]) == code
        captured = capsys.readouterr()
        assert cause in captured.err
        assert "nan" not in captured.out

    @pytest.mark.parametrize("command", [
        ["model"], ["bp"], ["bp", "--domain", "dual"], ["gibbs"], ["gibbs", "--domain", "dual"],
        ["swp"], ["swp", "--map"], ["map", "--location", "edge:0", "--marginal", "0.5,0.5"],
    ], ids=" ".join)
    def test_non_finite_table_refused_by_every_command(self, tmp_path, capsys, command):
        # the model refuses the overflowed table when it is built; bp used to
        # exit 5 and gibbs to exit 0 with the vertex marginals [0, 1]
        spec = write_spec(tmp_path, "m.json", {
            "family": "ising",
            "topology": {"type": "ring", "n": 4},
            "couplings": [800, 0.3, 0.2, 0.1],
            "fields": 0.1,
        })
        assert main([command[0], "--spec", spec, *command[1:]]) == 4
        assert "bad input: edge 0 table is not finite" in capsys.readouterr().err

    def test_budget_exit_code(self, tmp_path):
        spec = write_spec(tmp_path, "big.json", {
            "family": "ising",
            "topology": {"type": "grid", "rows": 8, "cols": 8},
        })
        assert main(["exact", "--spec", spec]) == 3

    def test_spec_error_exit_code(self, tmp_path):
        spec = write_spec(tmp_path, "bad.json", {"family": "xy",
                                                 "topology": {"type": "ring", "n": 3}})
        assert main(["model", "--spec", spec]) == 4
        assert main(["model", "--spec", str(tmp_path / "missing.json")]) == 4

    def test_unreadable_spec_exit_code(self, tmp_path, capsys):
        assert main(["model", "--spec", str(tmp_path)]) == 4
        assert f"cannot read spec {tmp_path}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, named", [
        (["bp", "--spec", str(SPECS / "ising_ring.json"), "--domain", "bogus"], "--domain"),
        (["gibbs", "--spec", str(SPECS / "ising_ring.json"), "--samples", "ten"], "--samples"),
        ([], "command"),
        (["exact", "--seed", "3", "--spec", str(SPECS / "ising_ring.json")], "--seed"),
    ], ids=["invalid-choice", "non-integer", "no-subcommand", "unread-flag"])
    def test_bad_argument_exit_code(self, capsys, argv, named):
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert "usage: nfgdual" in err
        assert "bad input: " in err and named in err

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["bp", "--help"]])
    def test_help_and_version_exit_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out

    def test_gaussian_chains_on_one_vertex_refused_by_cause(self, tmp_path, capsys):
        # the exact lines hold; the dual chain has no edge variables to sample
        spec = write_spec(tmp_path, "g.json", {
            "family": "gaussian",
            "topology": {"type": "path", "n": 1},
            "gaussian": {"s": 1.0, "sigma": 2.0},
        })
        assert main(["gaussian", "--spec", spec, "--samples", "10"]) == 4
        captured = capsys.readouterr()
        assert captured.out.startswith("exact primal variances: min=4 max=4 first=4\n")
        assert captured.err == ("bad input: the dual chain samples the edge variables, "
                                "and the graph has no edges\n")

    def test_gaussian_unmappable_dual_estimate_is_nan(self, tmp_path, capsys):
        # two retained sweeps of the dual chain estimate sigma^2 var_d >= 1
        spec = write_spec(tmp_path, "g.json", {
            "family": "gaussian",
            "topology": {"type": "grid", "rows": 15, "cols": 15, "periodic": True},
            "gaussian": {"s": 1.0, "sigma": 5.0},
        })
        assert main(["gaussian", "--spec", spec, "--samples", "2", "--seed", "4"]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[-1] == ("gibbs dual estimate mapped to primal:  "
                                                 "nan (sigma^2 * var_d = 1.06201 >= 1 maps to "
                                                 "no variance)")
        assert captured.err == ""

    def test_bp_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        def degenerate(nfg, cfg):
            raise DegenerateMessageError("message at vertex 0 cancelled to zero")

        monkeypatch.setattr(cli, "run_bp", degenerate)
        spec = write_spec(tmp_path, "m.json", TRIANGLE_SPEC)
        assert main(["bp", "--spec", spec]) == 5
        assert "vertex 0" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--max-iters", "0"], ["--tol", "nan"]])
    def test_unrunnable_bp_config_exit_code(self, tmp_path, capsys, flag):
        spec = write_spec(tmp_path, "m.json", TRIANGLE_SPEC)
        assert main(["bp", "--spec", spec] + flag) == 4
        assert flag[0][2:].replace("-", "_") in capsys.readouterr().err

    def test_env_budget_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NFG_DUAL_BUDGET", "4")
        spec = write_spec(tmp_path, "m.json", TRIANGLE_SPEC)
        assert main(["exact", "--spec", spec]) == 3

    @pytest.mark.parametrize("value", ["abc", "1e6", "0", "-5"])
    def test_bad_env_budget_exit_code(self, tmp_path, monkeypatch, capsys, value):
        monkeypatch.setenv("NFG_DUAL_BUDGET", value)
        spec = write_spec(tmp_path, "m.json", TRIANGLE_SPEC)
        assert main(["exact", "--spec", spec]) == 4
        assert f"NFG_DUAL_BUDGET='{value}'" in capsys.readouterr().err

    def test_unknown_experiment_name(self):
        assert main(["experiment", "fig-unknown"]) == 4

    def test_experiment_writes_csv_and_sidecar(self, tmp_path, capsys):
        out = str(tmp_path / "bounds.csv")
        assert main(["experiment", "fig-bounds", "--out", out]) == 0
        assert "wrote" in capsys.readouterr().out
        assert (tmp_path / "bounds.csv").exists()
        sidecar = json.loads((tmp_path / "bounds.schema.json").read_text())
        assert sidecar["experiment"] == "fig-bounds"

    @pytest.mark.parametrize("name", ["fig-fixed-points", "fig-bounds"])
    def test_curve_experiments_ignore_seed_and_quick(self, tmp_path, name):
        for sub, flags in (("plain", []), ("flagged", ["--seed", "7", "--quick"])):
            (tmp_path / sub).mkdir()
            assert main(["experiment", name, *flags, "--out", str(tmp_path / sub / "c.csv")]) == 0
        for file in ("c.csv", "c.schema.json"):
            assert (tmp_path / "plain" / file).read_bytes() == \
                (tmp_path / "flagged" / file).read_bytes()

    @pytest.mark.parametrize("where", ["directory", "under_a_file", "sidecar_is_a_directory"])
    def test_experiment_unwritable_out_exit_code(self, tmp_path, capsys, where):
        out, named = unwritable_out(tmp_path, where)
        assert main(["experiment", "fig-bounds", "--out", str(out)]) == 4
        assert f"cannot write {named}" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["directory", "missing_parent", "under_a_file",
                                       "sidecar_is_a_directory"])
    def test_experiment_unwritable_out_refused_before_the_runner(
            self, tmp_path, monkeypatch, capsys, where):
        def runner():
            raise AssertionError("the runner ran before --out was checked")

        monkeypatch.setitem(cli.EXPERIMENTS, "fig-bounds", runner)
        out, named = unwritable_out(tmp_path, where)
        assert main(["experiment", "fig-bounds", "--out", str(out)]) == 4
        assert f"cannot write {named}" in capsys.readouterr().err

    def test_experiment_without_samples_refuses_the_flag(self, tmp_path, capsys):
        out = str(tmp_path / "bounds.csv")
        assert main(["experiment", "fig-bounds", "--samples", "5", "--out", out]) == 4
        assert "fig-bounds" in capsys.readouterr().err
        assert not (tmp_path / "bounds.csv").exists()

    def test_experiment_samples_zero_is_not_the_default(self, tmp_path, capsys):
        out = str(tmp_path / "gaussian.csv")
        assert main(["experiment", "fig-gaussian", "--quick", "--samples", "0", "--out", out]) == 4
        assert "samples" in capsys.readouterr().err

    def test_validate_quick(self, capsys):
        assert main(["validate", "--quick", "--seed", "1234"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out


# what each exit code's documented description must mention
EXIT_MEANINGS = {
    "EXIT_OK": "success",
    "EXIT_VALIDATION": "validation",
    "EXIT_BUDGET": "budget",
    "EXIT_SPEC": "bad input",
    "EXIT_BP": "BP",
}


def documented_exit_codes(text):
    """{code: description} parsed from the 'Exit codes: ...' sentence of a document."""
    flat = " ".join(text.split())
    sentence = re.search(r"Exit codes: (.+?)\.(?:\s|$)", flat).group(1)
    items = re.split(r", (?=\d+ )", sentence)
    codes = [int(item.split(" ", 1)[0]) for item in items]
    assert len(codes) == len(set(codes)), f"an exit code is listed twice: {sentence}"
    return {code: item.split(" ", 1)[1] for code, item in zip(codes, items)}


@pytest.mark.parametrize("source", ["cli docstring", "README"])
def test_documented_exit_codes_match_constants(source):
    if source == "README":
        text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    else:
        text = cli.__doc__
    documented = documented_exit_codes(text)
    constants = {name: value for name, value in vars(cli).items() if name.startswith("EXIT_")}
    assert sorted(constants) == sorted(EXIT_MEANINGS)
    assert sorted(documented) == sorted(constants.values())
    for name, value in constants.items():
        assert EXIT_MEANINGS[name] in documented[value], (name, documented[value])
