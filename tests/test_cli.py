import json
from fractions import Fraction as F

import pytest

from groupcut import construct, serialize
from groupcut.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_gmic(tmp_path, name="fn.json", f="4/5"):
    path = tmp_path / name
    code = main(["construct", "gmic", "--f", f, "-o", str(path)])
    assert code == 0
    return str(path)


class TestConstruct:
    def test_gmic_stdout(self, capsys):
        code, out, err = run(capsys, "construct", "gmic", "--f", "4/5")
        assert code == 0
        doc = json.loads(out)
        assert doc["f"] == "4/5"

    def test_unknown_family(self, capsys):
        code, out, err = run(capsys, "construct", "nope", "--f", "1/2")
        assert code == 1
        assert "error" in err

    def test_stub_family(self, capsys):
        code, out, err = run(capsys, "construct", "gj_2_slope", "--f", "1/2")
        assert code == 1
        assert "no constructor" in err

    def test_bad_parameter(self, capsys):
        code, out, err = run(capsys, "construct", "gmic", "--f", "0.8")
        assert code == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("nope",), "unknown family 'nope'"),
            (("gmic",), "family 'gmic' needs parameter 'f'"),
            (("negation",), "family 'negation' needs parameter 'fn'"),
            (("gmic", "--f", "4/5", "--n", "3"), "family 'gmic' takes no parameter 'n'"),
            (("gj_2_slope", "--f", "1/2", "--f-index", "1"),
             "family 'gj_2_slope' takes no parameter 'f_index'"),
        ],
        ids=["unknown", "missing-f", "missing-fn", "extra-n", "stub-extra-f_index"],
    )
    def test_error_names_the_family_and_parameter(self, capsys, argv, message):
        assert run(capsys, "construct", *argv) == (1, "", f"error: {message}\n")


class TestConstructOptions:
    """Every option of ``construct`` reaches the family's parameters."""

    @pytest.mark.parametrize(
        "argv, name, params",
        [
            (
                ("two_slope_fill_in", "--q", "5", "--f-index", "4", "--values", "0,1/4,1/2,3/4,1",
                 "--s-plus", "5/4", "--s-minus", "-5"),
                "two_slope_fill_in",
                dict(q=5, f_index=4, values=[F(0), F(1, 4), F(1, 2), F(3, 4), F(1)],
                     s_plus=F(5, 4), s_minus=F(-5)),
            ),
            (
                ("psi_n", "--f", "1/2", "--n", "2", "--variant", "mu_eq_1"),
                "psi_n",
                dict(f=F(1, 2), n=2, variant="mu_eq_1"),
            ),
        ],
        ids=["two_slope_fill_in", "psi_n-mu_eq_1"],
    )
    def test_matches_the_library(self, capsys, argv, name, params):
        expected = serialize.dumps(serialize.serialize_pwl(construct(name, **params)))
        assert run(capsys, "construct", *argv) == (0, expected, "")

    def test_malformed_integer_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["construct", "psi_n", "--f", "1/2", "--n", "x"])
        assert exc.value.code == 2
        assert "argument --n: invalid int value: 'x'" in capsys.readouterr().err

    def test_malformed_rational_is_malformed_input(self, capsys):
        argv = ("two_slope_fill_in", "--q", "5", "--f-index", "4", "--values", "0,x",
                "--s-plus", "5/4", "--s-minus", "-5")
        assert run(capsys, "construct", *argv) == (1, "", "error: not a rational literal: 'x'\n")


class TestList:
    def test_tsv(self, capsys):
        code, out, err = run(capsys, "list")
        assert code == 0
        lines = out.strip().split("\n")
        assert any(line.startswith("gmic\tconstructible\t") for line in lines)
        assert any("\tstub\t" in line for line in lines)


class TestTestCommands:
    def test_minimality(self, capsys, tmp_path):
        path = write_gmic(tmp_path)
        code, out, err = run(capsys, "test", "minimality", path)
        assert code == 0
        assert json.loads(out)["status"] == "Minimal"

    def test_minimality_finite(self, capsys, tmp_path):
        path = write_gmic(tmp_path)
        code, out, err = run(capsys, "restrict", path, "--q", "5", "-o", str(tmp_path / "g.json"))
        assert code == 0
        code, out, err = run(capsys, "test", "minimality", str(tmp_path / "g.json"))
        assert code == 0
        assert json.loads(out)["status"] == "Minimal"

    def test_extremality_with_certificate(self, capsys, tmp_path):
        path = write_gmic(tmp_path)
        cert_path = tmp_path / "cert.json"
        code, out, err = run(
            capsys, "test", "extremality", path, "--certificate", str(cert_path)
        )
        assert code == 0
        assert json.loads(out)["status"] == "Extreme"
        assert json.loads(cert_path.read_text())["certificate"] is None

    def test_extremality_rejects_non_minimal(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            serialize.dumps(
                {
                    "schema_version": 1,
                    "f": "4/5",
                    "breakpoints": ["0"],
                    "limits": [["5/4", "0", "0"]],
                }
            )
        )
        code, out, err = run(capsys, "test", "extremality", str(path))
        assert code == 1

    def test_extremality_rejects_continuous_non_minimal(self, capsys, tmp_path):
        # 2·gmic − psi_1, the dent of the packaging smoke test.
        g, p1 = construct("gmic", f=F(4, 5)), construct("psi_n", f=F(4, 5), n=1)
        path = tmp_path / "dent.json"
        path.write_text(serialize.dumps(serialize.serialize_pwl(construct("affine_combine", a=2, fn1=g, b=-1, fn2=p1))))
        code, out, err = run(capsys, "test", "extremality", str(path))
        assert code == 1
        assert out == ""
        assert "requires a minimal function" in err

    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "test", "minimality", "/no/such/file.json")
        assert code == 1

    def test_schema_error_path(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema_version":1,"f":"0.5","breakpoints":["0"],"limits":[["0","0","0"]]}\n')
        code, out, err = run(capsys, "test", "minimality", str(path))
        assert code == 1
        assert "$.f" in err


class TestPointWitnesses:
    """A point witness's location is one rational in the stdout document."""

    @pytest.mark.parametrize(
        "doc, witness",
        [
            ('"f":"1/2","breakpoints":["0"],"limits":[["1","1","1"]]',
             '{"kind":"originValue","location":"0","value":"1"}'),
            ('"f":"1/2","breakpoints":["0","1/4","1/2"],'
             '"limits":[["0","0","0"],["-1/4","-1/4","-1/4"],["1","1","1"]]',
             '{"kind":"negativity","location":"1/4","value":"-1/4"}'),
            ('"f":"1/2","breakpoints":["0","1/2"],"limits":[["0","0","0"],["1/2","1/2","1/2"]]',
             '{"kind":"symmetry","location":"1/2","value":"1/2"}'),
        ],
        ids=["originValue", "negativity", "symmetry"],
    )
    def test_stdout_bytes(self, capsys, tmp_path, doc, witness):
        path = tmp_path / "fn.json"
        path.write_text('{"schema_version":1,' + doc + "}")
        expected = (
            '{"schema_version":1,"test":"minimality","status":"NotMinimal","witness":'
            + witness + "}\n"
        )
        assert run(capsys, "test", "minimality", str(path)) == (0, expected, "")


class TestLoaderRefusals:
    """Each refusal of the loaders exits 1 and names its JSON path."""

    @pytest.mark.parametrize(
        "doc, message",
        [
            ('"f":"1/2","breakpoints":"0","limits":[]', "$.breakpoints/limits: expected arrays"),
            ('"f":"1/2","breakpoints":["0"],"limits":[]', "$.limits: length differs from breakpoints"),
            ('"f":"1/2","breakpoints":["0"],"limits":[["0","0"]]',
             "$.limits[0]: expected [left, value, right]"),
            ('"q":4,"values":["0","1","0","1"]', "$.f_index: missing"),
            ('"q":4,"f_index":2,"values":"0"', "$.values: expected an array"),
            ('"q":1,"f_index":0,"values":["0"]', "$: group order must be at least 2"),
        ],
        ids=["not-arrays", "lengths", "not-a-triple", "missing-key", "values-not-array", "finite-invalid"],
    )
    def test_exit_1_with_the_path(self, capsys, tmp_path, doc, message):
        path = tmp_path / "bad.json"
        path.write_text('{"schema_version":1,' + doc + "}")
        assert run(capsys, "test", "minimality", str(path)) == (1, "", f"error: {message}\n")


class TestRestrictInterpolate:
    def test_round_trip(self, capsys, tmp_path):
        path = write_gmic(tmp_path)
        g_path = tmp_path / "g.json"
        code, _, _ = run(capsys, "restrict", path, "--q", "5", "--m", "3", "-o", str(g_path))
        assert code == 0
        doc = json.loads(g_path.read_text())
        assert doc["q"] == 15 and doc["f_index"] == 12
        code, out, err = run(capsys, "interpolate", str(g_path))
        assert code == 0
        assert json.loads(out)["f"] == "4/5"

    def test_off_grid(self, capsys, tmp_path):
        path = write_gmic(tmp_path)
        code, out, err = run(capsys, "restrict", path, "--q", "3")
        assert code == 1


class TestApply:
    def test_negate(self, capsys, tmp_path):
        path = write_gmic(tmp_path)
        code, out, err = run(capsys, "apply", "negate", path)
        assert code == 0
        assert json.loads(out)["f"] == "1/5"

    def test_scale(self, capsys, tmp_path):
        path = write_gmic(tmp_path)
        code, out, err = run(capsys, "apply", "scale", path, "--lam", "2")
        assert code == 0
        assert json.loads(out)["f"] == "2/5"

    def test_combine(self, capsys, tmp_path):
        path = write_gmic(tmp_path)
        code, out, err = run(
            capsys, "apply", "combine", path, "--a", "1/2", "--b", "1/2", "--other", path
        )
        assert code == 0
        assert json.loads(out)["f"] == "4/5"

    def test_combine_missing_args(self, capsys, tmp_path):
        path = write_gmic(tmp_path)
        code, out, err = run(capsys, "apply", "combine", path)
        assert code == 1

    def test_projected_sequential_merge(self, capsys, tmp_path):
        path = write_gmic(tmp_path, f="1/5")
        code, out, err = run(capsys, "apply", "projected_sequential_merge", path, "--n", "2")
        assert code == 0
        assert json.loads(out)["f"] == "2/5"


class TestRefusedInput:
    """A library refusal reaches stderr as ``error: <message>``, exit 1."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("test", "extremality", "{fn}", "--oversampling", "2"),
             "oversampling factor must be at least 3"),
            (("restrict", "{fn}", "--q", "3"), "f=4/5 does not lie on the (1/3)Z grid"),
            (("apply", "scale", "{fn}", "--lam", "0"), "scale factor must be nonzero"),
            (("apply", "combine", "{fn}", "--a", "1/2", "--b", "1/2", "--other", "{half}"),
             "cannot combine functions with f=4/5 and f=1/2"),
        ],
        ids=["oversampling", "restrict", "scale", "combine"],
    )
    def test_stderr_and_exit_code(self, capsys, tmp_path, argv, message):
        paths = {"fn": write_gmic(tmp_path), "half": write_gmic(tmp_path, "half.json", "1/2")}
        argv = [a.format(**paths) for a in argv]
        assert run(capsys, *argv) == (1, "", f"error: {message}\n")


class TestPlot:
    def test_function(self, capsys, tmp_path):
        path = write_gmic(tmp_path)
        code, out, err = run(capsys, "plot", "function", path)
        assert code == 0
        assert out.startswith("<svg") or "<svg" in out

    def test_diagram(self, capsys, tmp_path):
        path = write_gmic(tmp_path)
        out_path = tmp_path / "d.svg"
        code, _, _ = run(capsys, "plot", "diagram", path, "-o", str(out_path))
        assert code == 0
        assert "<svg" in out_path.read_text()


class TestThreadsEnv:
    def test_invalid_value(self, capsys, monkeypatch):
        monkeypatch.setenv("GROUPCUT_THREADS", "zero")
        code, out, err = run(capsys, "list")
        assert code == 1
        assert "GROUPCUT_THREADS" in err

    def test_zero(self, capsys, monkeypatch):
        monkeypatch.setenv("GROUPCUT_THREADS", "0")
        code, out, err = run(capsys, "list")
        assert code == 1
        assert out == ""
        assert "GROUPCUT_THREADS must be a positive integer, got '0'" in err

    def test_valid_value(self, capsys, monkeypatch):
        monkeypatch.setenv("GROUPCUT_THREADS", "4")
        code, out, err = run(capsys, "list")
        assert code == 0
