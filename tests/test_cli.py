import io
import json
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from ellhall.cli import (ConfigError, RunConfig, cmd_characters,
                         cmd_curve_info, cmd_straighten, load_curve_file,
                         main)
from ellhall.curve import IdentityMismatch
from ellhall.elliptic_hall import StraighteningError
from ellhall.verification import _check

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture()
def e1_file(tmp_path):
    path = tmp_path / "e1.curve"
    path.write_text("# supersingular test curve\nq=2\na3=1\n")
    return str(path)


@pytest.fixture()
def e2_file(tmp_path):
    path = tmp_path / "e2.curve"
    path.write_text("q=5\na4=1\na6=1\n")
    return str(path)


class TestConfig:
    def test_load_curve_file(self, e1_file):
        assert load_curve_file(e1_file) == {"q": 2, "a3": 1}

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "bad.curve"
        p.write_text("q=2\nfoo=1\n")
        with pytest.raises(ConfigError):
            load_curve_file(str(p))

    def test_non_integer(self, tmp_path):
        p = tmp_path / "bad.curve"
        p.write_text("q=two\n")
        with pytest.raises(ConfigError):
            load_curve_file(str(p))

    def test_missing_q(self, tmp_path):
        p = tmp_path / "bad.curve"
        p.write_text("a3=1\n")
        with pytest.raises(ConfigError):
            load_curve_file(str(p))

    def test_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(n=0).validate()
        with pytest.raises(ConfigError):
            RunConfig(out_format="xml").validate()


class TestCurveInfo:
    def test_e1_report(self):
        report = cmd_curve_info(RunConfig())
        assert report["schema_version"] == 1
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["counts-match-trace-recursion"]["status"] == "pass"
        assert by_name["counts-match-trace-recursion"]["detail"]["trace"] == "0"
        assert "[3, 9, 9, 9, 33, 81]" in str(by_name["counts-match-trace-recursion"]["detail"])

    def test_singular_is_config_error(self):
        config = RunConfig(curve_params={"q": 2})
        rc = main(["curve-info"])
        assert rc == 0
        with pytest.raises(ConfigError):
            cmd_curve_info(config)


class TestCharacters:
    def test_level_two(self):
        report = cmd_characters(RunConfig(n=2))
        detail = report["checks"][0]["detail"]
        assert detail["primitive orbits"] == "3"
        assert detail["frobenius-fixed"] == "3"
        assert report["checks"][0]["status"] == "pass"

    def test_level_one_all_primitive(self):
        report = cmd_characters(RunConfig(n=1))
        detail = report["checks"][0]["detail"]
        assert detail["primitive orbits"] == detail["orbits"]


class TestStraighten:
    def test_basic_product(self):
        report = cmd_straighten(RunConfig(n=1), "t(1,0) * t(0,1)")
        nf = report["normal_form"]
        assert len(nf) == 2
        assert nf[json.dumps([[0, 1], [1, 0]])] == "1"

    def test_commuting_ray(self):
        report = cmd_straighten(RunConfig(n=1), "t(0,1) * t(0,2)")
        nf = report["normal_form"]
        assert list(nf) == [json.dumps([[0, 2], [0, 1]])]

    def test_theta_and_scalars(self):
        report = cmd_straighten(RunConfig(n=1), "2 * theta(0,2) - t(0,2) + (1/3)*t(0,1)*t(0,1)")
        assert report["checks"][0]["status"] == "pass"


class TestMainEntry:
    def run_main(self, argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = main(argv)
        return rc, buf.getvalue()

    def test_curve_info_exit_zero(self, e1_file):
        rc, out = self.run_main(["--curve", e1_file, "curve-info"])
        assert rc == 0
        assert "counts-match-trace-recursion" in out

    @pytest.mark.parametrize("text", ["q=2\n", "q=1000003\na3=1\n"],
                             ids=["singular", "field-over-budget"])
    def test_bad_curve_exit_two(self, tmp_path, text, capsys):
        p = tmp_path / "bad.curve"
        p.write_text(text)
        rc, _ = self.run_main(["--curve", str(p), "curve-info"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_missing_file_exit_two(self):
        rc, _ = self.run_main(["--curve", "/nonexistent.curve", "curve-info"])
        assert rc == 2

    @pytest.mark.parametrize("expression", ["t(1,0) * oops(", "t(0,0)", "1/0", "theta(0,0)"],
                             ids=["parse", "origin", "zero-division", "theta-origin"])
    def test_parse_error_exit_two(self, expression, capsys):
        rc, _ = self.run_main(["straighten", expression])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_json_deterministic(self, e1_file):
        rc1, out1 = self.run_main(["--curve", e1_file, "--format", "json", "characters"])
        rc2, out2 = self.run_main(["--curve", e1_file, "--format", "json", "characters"])
        assert rc1 == rc2 == 0
        assert out1 == out2
        parsed = json.loads(out1)
        assert parsed["schema_version"] == 1

    def test_curve_info_large_rank_two_group(self, tmp_path):
        path = tmp_path / "f7.curve"
        path.write_text("q=7\na4=1\na6=3\n")
        rc, out = self.run_main(["--curve", str(path), "--budget-degree", "4",
                                 "--format", "json", "curve-info"])
        assert rc == 0
        by_name = {c["name"]: c for c in json.loads(out)["checks"]}
        assert by_name["picard-structures"]["detail"] == {
            "level 1": "Z/6", "level 2": "Z/2 x Z/30", "level 3": "Z/3 x Z/126",
            "level 4": "Z/20 x Z/120"}

    def test_csv_format(self, e1_file):
        rc, out = self.run_main(["--curve", e1_file, "--format", "csv", "curve-info"])
        assert rc == 0
        assert out.splitlines()[0] == "name,status,detail"

    def test_verify_all_reduced_budget_skips(self, e1_file):
        rc, out = self.run_main(["--curve", e1_file, "--budget-degree", "1",
                                 "--format", "json", "verify-all"])
        assert rc == 0
        report = json.loads(out)
        assert report["summary"]["fail"] == 0
        assert report["summary"]["skip"] == len(report["checks"])

    @pytest.mark.parametrize("argv", [
        ["verify-all", "--budget-degree", "1", "--format", "json"],
        ["--format", "json", "verify-all", "--budget-degree", "1"],
    ], ids=["after", "split"])
    def test_global_options_after_subcommand(self, argv):
        before = self.run_main(["--budget-degree", "1", "--format", "json", "verify-all"])
        assert self.run_main(argv) == before


class TestCheckRunner:
    @pytest.fixture()
    def toy(self):
        @_check("toy", "size", "levels")
        def toy_check(size=3, levels=(1, 2), ok=True, raises=None):
            if raises is not None:
                raise raises
            return ok, {"size": str(size)}
        return toy_check

    def test_full_scale_passes(self, toy):
        result = toy()
        assert (result.name, result.status, result.detail) == ("toy", "pass", {"size": "3"})
        assert toy.full_scale == {"size": 3, "levels": (1, 2)}

    @pytest.mark.parametrize("kwargs", [{"size": 2}, {"levels": (1,)}], ids=["size", "levels"])
    def test_lowered_budget_skips(self, toy, kwargs):
        assert toy(**kwargs).status == "skip"

    def test_list_equal_to_tuple_default_passes(self, toy):
        assert toy(3, [1, 2]).status == "pass"

    def test_not_ok_at_reduced_scale_fails(self, toy):
        assert toy(size=1, ok=False).status == "fail"

    @pytest.mark.parametrize("exc", [IdentityMismatch("u_loc must square to 1/q_loc"),
                                     StraighteningError("no normal form")],
                             ids=["identity-mismatch", "straightening-error"])
    def test_exception_fails_with_detail(self, toy, exc):
        result = toy(size=1, raises=exc)
        assert result.status == "fail"
        assert result.detail == {"error": f"{type(exc).__name__}: {exc}"}

    def test_keyboard_interrupt_propagates(self, toy):
        with pytest.raises(KeyboardInterrupt):
            toy(raises=KeyboardInterrupt())


def test_console_entry_point(e1_file):
    proc = subprocess.run(
        [sys.executable, "-m", "ellhall", "--curve", e1_file, "curve-info"],
        capture_output=True, text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"})
    assert proc.returncode == 0
    assert "summary:" in proc.stdout


FAULT_SCRIPT = """
import ellhall.autoforms as af
from ellhall.verification import check_twisted_pairing
pair = af.global_green_pair
af.global_green_pair = lambda a, b: pair(a, b) * 2
print(check_twisted_pairing(nmax=2).status)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_identity_fault_fails_under_optimize(flags):
    # identity checks raise explicitly, so python -O must not turn them off
    proc = subprocess.run(
        [sys.executable, *flags, "-c", FAULT_SCRIPT],
        capture_output=True, text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["fail"]


DATA = Path(__file__).resolve().parent / "data"

GOLDEN_WORDS = ["t(2,-1)*t(-1,2)*t(0,1)", "t(1,1)*t(0,-1)*t(-1,0)",
                "t(0,1)*t(1,0)*t(-1,-1)*t(1,0)"]

GOLDEN = {
    **{f"verify_all_budget{b}.json": ["--budget-degree", str(b), "--format", "json", "verify-all"]
       for b in (2, 4)},
    **{f"straighten_n{n}_w{i}.json": ["--n", str(n), "--format", "json", "straighten", word]
       for i, word in enumerate(GOLDEN_WORDS, 1) for n in (1, 2)},
}


@pytest.mark.parametrize("golden", sorted(GOLDEN))
def test_report_unchanged_byte_for_byte(golden):
    # the committed files are reports of an earlier version of the package;
    # exact arithmetic in canonical form must reproduce them to the byte
    proc = subprocess.run(
        [sys.executable, "-m", "ellhall", *GOLDEN[golden]], capture_output=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (DATA / golden).read_bytes()
