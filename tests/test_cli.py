import csv
import json
import math
from types import SimpleNamespace

import pytest

from splinequad import cli
from splinequad.cli import (
    EXIT_FAIL,
    EXIT_OK,
    EXIT_USAGE,
    format_sig25,
    main,
)


def _must_not_build(*args, **kwargs):
    raise AssertionError("a rule outside the supported range was built")


class TestFormat:
    def test_zero(self):
        assert format_sig25(0) == "0"
        assert format_sig25(0.0) == "0"

    def test_strips_leading_zero(self):
        assert format_sig25(0.5) == ".5"
        assert format_sig25(-0.25) == "-.25"

    def test_integers_keep_no_point(self):
        assert format_sig25(1.0) == "1"
        assert format_sig25(2.0) == "2"

    def test_trailing_zeros_stripped(self):
        assert format_sig25(1.5) == "1.5"


class TestGenerate:
    def test_maple_matches_reference_layout(self, capsys):
        rc = main(["generate", "--class", "c1", "--degree", "5",
                   "--format", "maple", "--precision", "extended"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert out == ("C1xD5 := [ [0, .4666666666666666666666667], "
                       "[.5, .5333333333333333333333333] ];\n")

    def test_json_structure(self, capsys):
        rc = main(["generate", "--class", "c0", "--degree", "3",
                   "--format", "json"])
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["family"] == "C0xD3"
        assert doc["class"] == 0
        assert doc["degree"] == 3
        assert doc["period_intervals"] == 2
        assert len(doc["intervals"]) == 2
        assert len(doc["intervals"][0]["nodes"]) == 2
        assert len(doc["intervals"][1]["nodes"]) == 1

    def test_csv_layout(self, capsys):
        rc = main(["generate", "--class", "c1", "--degree", "8",
                   "--format", "csv"])
        assert rc == EXIT_OK
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert rows[0] == ["interval", "index", "node", "weight"]
        assert rows[1][:2] == ["0", "0"]
        assert rows[1][2] == "0"  # fixed node at the interval start
        # 2n - 1 = 7 entries for degree 8
        assert len(rows) == 8

    def test_output_file(self, tmp_path, capsys):
        path = tmp_path / "rule.json"
        rc = main(["generate", "--class", "c0", "--degree", "4",
                   "--output", str(path)])
        assert rc == EXIT_OK
        assert json.loads(path.read_text())["family"] == "C0xD4"
        assert capsys.readouterr().out == ""

    def test_variant_selects_family(self, capsys):
        main(["generate", "--class", "c1", "--degree", "7",
              "--variant", "interior", "--format", "maple"])
        assert capsys.readouterr().out.startswith("C1xD7x2 := ")

    def test_invalid_degree_is_usage_error(self, capsys):
        assert main(["generate", "--class", "c1", "--degree", "2"]) == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_degree_past_supported_range_is_usage_error(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "build_rule", _must_not_build)
        assert main(["generate", "--class", "c0", "--degree", "100001"]) == EXIT_USAGE
        assert "C0_ODD n=50001" in capsys.readouterr().err

    def test_variant_on_c0_is_usage_error(self, capsys):
        rc = main(["generate", "--class", "c0", "--degree", "5",
                   "--variant", "interior"])
        assert rc == EXIT_USAGE

    def test_delta_sign_outside_c0_even_is_usage_error(self, capsys):
        rc = main(["generate", "--class", "c1", "--degree", "5",
                   "--delta-sign", "-"])
        assert rc == EXIT_USAGE

    def test_delta_sign_mirrors_c0_even(self, capsys):
        main(["generate", "--class", "c0", "--degree", "4",
              "--format", "json"])
        plus = json.loads(capsys.readouterr().out)
        main(["generate", "--class", "c0", "--degree", "4",
              "--format", "json", "--delta-sign", "-"])
        minus = json.loads(capsys.readouterr().out)
        assert plus["intervals"] != minus["intervals"]

    def test_unwritable_output(self, tmp_path, capsys):
        rc = main(["generate", "--class", "c0", "--degree", "3",
                   "--output", str(tmp_path / "missing" / "rule.json")])
        assert rc == EXIT_FAIL


class TestVerify:
    def test_golden_scope_passes(self, capsys):
        rc = main(["verify", "--scope", "golden"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "verification: PASS" in out
        assert out.count("golden C") == 34

    def test_exactness_scope_passes(self, capsys):
        rc = main(["verify", "--scope", "exactness", "--max-n", "5"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert out.count("exactness ") == 5

    @pytest.mark.parametrize("max_n", ["1", "201"])
    def test_max_n_outside_supported_range_is_usage_error(self, max_n, monkeypatch,
                                                          capsys):
        # 1 leaves C1 even without a rule; 201 is past MAX_N
        monkeypatch.setattr(cli, "build_rule", _must_not_build)
        assert main(["verify", "--max-n", max_n]) == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_impossible_tolerance_fails(self, capsys):
        rc = main(["verify", "--scope", "exactness", "--max-n", "3",
                   "--exactness-tol", "1e-30"])
        assert rc == EXIT_FAIL
        assert "verification: FAIL" in capsys.readouterr().out

    def test_nan_error_at_one_n_fails_and_names_it(self, monkeypatch, capsys):
        # NaN compares false against the tolerance and against the worst
        # so far: it must still fail the family and be the worst n
        monkeypatch.setattr(cli, "check_exactness", lambda rule: SimpleNamespace(
            max_abs_error=math.nan if rule.n == 5 else 1e-16))
        rc = main(["verify", "--scope", "exactness", "--max-n", "8"])
        out = capsys.readouterr().out
        assert rc == EXIT_FAIL
        lines = [line for line in out.splitlines() if "exactness " in line]
        assert len(lines) == 5
        assert all("worst n= 5  max err       nan  FAIL" in line for line in lines)
        assert "verification: FAIL" in out

    def test_nan_error_at_every_n_fails(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "check_exactness", lambda rule: SimpleNamespace(
            max_abs_error=math.nan))
        rc = main(["verify", "--scope", "exactness", "--max-n", "4"])
        out = capsys.readouterr().out
        assert rc == EXIT_FAIL
        assert "exactness C1_EVEN            worst n= 2  max err       nan  FAIL" in out

    def test_nan_golden_deviation_is_the_worst(self, monkeypatch, capsys):
        compare = cli.compare_golden
        monkeypatch.setattr(cli, "compare_golden", lambda rule, golden: (
            math.nan if golden.rule_id == "C1xD8" else compare(rule, golden)))
        rc = main(["verify", "--scope", "golden"])
        out = capsys.readouterr().out
        assert rc == EXIT_FAIL
        assert "golden C1xD8       max dev       nan  FAIL" in out
        assert "golden worst: C1xD8 at nan (tol 1e-13)" in out


class TestPlot:
    def test_writes_svg_and_csv(self, tmp_path):
        path = tmp_path / "weights.svg"
        rc = main(["plot", "--class", "c1", "--degree", "9",
                   "--variant", "both", "--output", str(path)])
        assert rc == EXIT_OK
        svg = path.read_text()
        assert svg.startswith("<svg")
        assert "endpoint" in svg and "interior" in svg
        rows = list(csv.reader((tmp_path / "weights.csv").read_text().splitlines()))
        assert rows[0] == ["series", "index", "node", "weight"]
        assert {r[0] for r in rows[1:]} == {"endpoint", "interior"}

    def test_single_series(self, tmp_path):
        path = tmp_path / "w.svg"
        rc = main(["plot", "--class", "c0", "--degree", "6",
                   "--output", str(path)])
        assert rc == EXIT_OK
        assert path.exists()

    def test_csv_goes_next_to_an_svg_path_in_a_dotted_directory(self, tmp_path):
        (tmp_path / "out.d").mkdir()
        path = tmp_path / "out.d" / "weights"
        rc = main(["plot", "--class", "c1", "--degree", "7",
                   "--output", str(path)])
        assert rc == EXIT_OK
        assert path.read_text().startswith("<svg")
        text = (tmp_path / "out.d" / "weights.csv").read_text()
        rows = list(csv.reader(text.splitlines()))
        assert rows[0] == ["series", "index", "node", "weight"]
        assert not (tmp_path / "out.csv").exists()

    def test_svg_path_ending_in_csv_is_usage_error(self, monkeypatch, tmp_path,
                                                   capsys):
        # the CSV would overwrite the SVG
        monkeypatch.setattr(cli, "build_rule", _must_not_build)
        path = tmp_path / "w.csv"
        rc = main(["plot", "--class", "c1", "--degree", "7",
                   "--output", str(path)])
        assert rc == EXIT_USAGE
        assert "error" in capsys.readouterr().err
        assert not path.exists()

    def test_degree_past_supported_range_is_usage_error(self, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "build_rule", _must_not_build)
        rc = main(["plot", "--class", "c1", "--degree", "100001",
                   "--variant", "both", "--output", str(tmp_path / "x.svg")])
        assert rc == EXIT_USAGE

    def test_both_requires_c1_odd(self, tmp_path):
        rc = main(["plot", "--class", "c0", "--degree", "5",
                   "--variant", "both", "--output", str(tmp_path / "x.svg")])
        assert rc == EXIT_USAGE

    def test_unwritable_output(self, tmp_path):
        rc = main(["plot", "--class", "c1", "--degree", "5",
                   "--output", str(tmp_path / "no" / "x.svg")])
        assert rc == EXIT_FAIL
