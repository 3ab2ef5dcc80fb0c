"""CLI front-end tests."""

import pytest

from repro.cli import main


class TestList:
    def test_lists_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for exp_id in ("e01", "e14", "f01", "f04"):
            assert exp_id in out


class TestRun:
    def test_run_single(self, capsys):
        assert main(["run", "f01"]) == 0
        out = capsys.readouterr().out
        assert "claim held: YES" in out

    def test_run_unknown(self, capsys):
        assert main(["run", "zzz"]) == 2
        assert "error:" in capsys.readouterr().err


class TestSimulate:
    def test_path_network(self, capsys):
        assert main(["simulate", "--topology", "path", "--n", "5",
                     "--horizon", "200"]) == 0
        out = capsys.readouterr().out
        assert "bounded: True" in out

    def test_grid_default_sink(self, capsys):
        assert main(["simulate", "--topology", "grid", "--rows", "3",
                     "--cols", "3", "--out-rate", "2", "--horizon", "200"]) == 0
        assert "delivered" in capsys.readouterr().out

    def test_gnp_topology(self, capsys):
        assert main(["simulate", "--topology", "gnp", "--n", "10", "--p", "0.4",
                     "--out-rate", "3", "--horizon", "150", "--seed", "1"]) == 0


class TestClassify:
    def test_saturated_path(self, capsys):
        assert main(["classify", "--topology", "path", "--n", "4"]) == 0
        out = capsys.readouterr().out
        assert "class: saturated" in out

    def test_infeasible(self, capsys):
        assert main(["classify", "--topology", "path", "--n", "4",
                     "--in-rate", "3", "--out-rate", "3"]) == 0
        out = capsys.readouterr().out
        assert "class: infeasible" in out

    def test_complete_unsaturated(self, capsys):
        assert main(["classify", "--topology", "complete", "--n", "5",
                     "--in-rate", "1", "--out-rate", "4"]) == 0
        out = capsys.readouterr().out
        assert "class: unsaturated" in out
        assert "epsilon" in out


class TestRegion:
    PATH4 = ["region", "--topology", "path", "--n", "4"]

    def test_nominal_ray(self, capsys):
        assert main(self.PATH4) == 0
        out = capsys.readouterr().out
        assert "lambda*: 1  (exact: lam·ray feasible iff lam <= lambda*)" in out
        assert "class: saturated  margin: 0" in out

    def test_rational_ray(self, capsys):
        assert main(self.PATH4 + ["--ray", "0=3/2"]) == 0
        out = capsys.readouterr().out
        assert "ray: 0=3/2" in out
        assert "lambda*: 2/3  (exact" in out
        assert "class:" not in out  # off the nominal ray: no Definitions 3-4

    def test_json_is_the_region_response(self, capsys):
        import json

        from repro.flow import breakpoint_envelope, classify_region
        from repro.serve import parse_spec
        from repro.serve.codec import region_response

        assert main(self.PATH4 + ["--json"]) == 0
        ext = parse_spec({"topology": "path", "n": 4}).extended()
        env = breakpoint_envelope(ext, None)
        report = classify_region(ext, envelope=env)
        assert json.loads(capsys.readouterr().out) == region_response(env, report)

    def test_exponent_rate_is_one_line_exit_2(self, capsys):
        # the rates /v1/region accepts: an exponent is refused before it
        # expands into a 100,000-digit integer
        assert main(self.PATH4 + ["--ray", "0=1e100000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: direction[0] = '1e100000' must be an integer or an exact "
            "rational string like '3/2', at most 64 digits a side"]


class TestEnsemble:
    def test_basic_ensemble(self, capsys):
        assert main(["ensemble", "--topology", "path", "--n", "5",
                     "--replicas", "4", "--horizon", "100"]) == 0
        out = capsys.readouterr().out
        assert "replicas: 4" in out
        assert "bounded fraction:" in out

    def test_full_knob_set(self, capsys):
        assert main(["ensemble", "--topology", "path", "--n", "4",
                     "--retention", "2", "--revelation", "always_r",
                     "--extraction", "random", "--activation-prob", "0.8",
                     "--uniform-arrivals", "--loss-p", "0.1",
                     "--replicas", "3", "--horizon", "120", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "replicas: 3" in out
        assert "delivered" in out

    def test_revelation_requires_retention(self, capsys):
        assert main(["ensemble", "--topology", "path", "--n", "4",
                     "--revelation", "zero", "--replicas", "2"]) == 2
        assert "retention" in capsys.readouterr().err


class TestSweep:
    def test_serial_region_sweep(self, capsys):
        assert main(["sweep", "--axis", "n=6,8", "--samples", "2",
                     "--horizon", "300", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "sweep: 4 points" in out
        assert "Theorem 1 diagonal:" in out
        assert "class counts:" in out
        assert "feasibility cache:" in out

    def test_classify_point_and_zip(self, capsys):
        assert main(["sweep", "--point", "classify",
                     "--zip", "n=6,8;p=0.4,0.5", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "sweep: 2 points" in out
        assert "class counts:" in out

    def test_checkpoint_then_resume(self, tmp_path, capsys):
        cp = str(tmp_path / "sweep.jsonl")
        args = ["sweep", "--axis", "n=6", "--samples", "2",
                "--horizon", "200", "--checkpoint", cp]
        assert main(args) == 0
        capsys.readouterr()
        # a finished checkpoint without --resume must refuse, not clobber
        assert main(args) == 2
        assert "resume" in capsys.readouterr().err
        assert main(args + ["--resume"]) == 0
        assert "resumed: 2" in capsys.readouterr().out

    def test_workers_flag(self, capsys):
        assert main(["sweep", "--axis", "n=6", "--samples", "2",
                     "--horizon", "200", "--workers", "2"]) == 0
        assert "workers: 2" in capsys.readouterr().out

    def test_bad_axis_spec(self, capsys):
        assert main(["sweep", "--axis", "nonsense"]) == 2
        assert "bad axis" in capsys.readouterr().err


class TestExitCodes:
    """Bad input must exit non-zero with a one-line error — no traceback."""

    def _err_lines(self, capsys):
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return [line for line in err.splitlines() if line]

    def test_bad_axis_value_is_one_line(self, capsys):
        assert main(["sweep", "--axis", "n=abc", "--horizon", "64"]) == 2
        lines = self._err_lines(capsys)
        assert len(lines) == 1
        assert lines[0].startswith("error:") and "n='abc'" in lines[0]

    def test_ragged_zip_is_one_line(self, capsys):
        assert main(["sweep", "--zip", "n=4,5;p=0.3,0.4,0.5",
                     "--horizon", "64"]) == 2
        lines = self._err_lines(capsys)
        assert len(lines) == 1
        assert "equal lengths" in lines[0]

    def test_bad_zip_syntax_is_one_line(self, capsys):
        assert main(["sweep", "--zip", "garbage"]) == 2
        lines = self._err_lines(capsys)
        assert len(lines) == 1
        assert "bad axis" in lines[0]

    @pytest.mark.parametrize("samples", ["0", "-4"])
    def test_nonpositive_samples_is_one_line(self, capsys, samples):
        # rejected whether or not an axis is given
        for axes in ([], ["--axis", "n=6"]):
            assert main(["sweep", "--point", "classify", *axes,
                         f"--samples={samples}"]) == 2
            assert self._err_lines(capsys) == [
                f"error: --samples must be a positive integer, got {samples}"]

    def test_bad_float_axis_value(self, capsys):
        # p=x parses as the string "x"; the point function must reject it
        assert main(["sweep", "--axis", "p=x", "--horizon", "64"]) == 2
        lines = self._err_lines(capsys)
        assert len(lines) == 1
        assert "p='x'" in lines[0]

    def test_unexpected_exception_is_one_line_exit_1(self, capsys, monkeypatch):
        import repro.cli as cli

        def boom(_args):
            raise RuntimeError("wires crossed")

        monkeypatch.setattr(cli, "_run_sweep_command", boom)
        assert main(["sweep", "--axis", "n=6"]) == 1
        lines = self._err_lines(capsys)
        assert lines == ["error: RuntimeError: wires crossed"]


class TestServeCommand:
    def test_serve_help_lists_knobs(self, capsys):
        import pytest

        with pytest.raises(SystemExit) as exc_info:
            main(["serve", "--help"])
        assert exc_info.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--batch-window", "--queue-limit", "--rate",
                     "--jobs-dir", "--max-horizon"):
            assert flag in out
