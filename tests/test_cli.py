import json

import pytest

from cadkit import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExitCodes:
    def test_usage_error_bad_poly(self, tmp_path, capsys):
        bad = tmp_path / "bad.poly"
        bad.write_text("x +* y\n")
        code, _, err = run(capsys, "cad", "--input", str(bad),
                           "--order", "x,y")
        assert code == 2 and err

    def test_usage_error_division_by_zero(self, tmp_path, capsys):
        bad = tmp_path / "bad.poly"
        bad.write_text("x/0 + y\n")
        code, _, err = run(capsys, "cad", "--input", str(bad),
                           "--order", "x,y")
        assert code == 2 and "division by zero" in err

    def test_usage_error_missing_file(self, capsys):
        code, _, err = run(capsys, "cad", "--input", "/nonexistent.poly",
                           "--order", "x,y")
        assert code == 2

    def test_usage_error_bad_order(self, tmp_path, capsys):
        f = tmp_path / "p.poly"
        f.write_text("x + y\n")
        code, _, _ = run(capsys, "cad", "--input", str(f), "--order", "x")
        assert code == 2

    def test_not_well_oriented_exit_3(self, tmp_path, capsys):
        f = tmp_path / "nwo.poly"
        f.write_text("(u - v)*z + u^2 - w\n")
        code, _, err = run(capsys, "cad", "--input", str(f),
                           "--order", "u,v,w,z", "--operator", "mccallum")
        assert code == 3 and "well-oriented" in err

    def test_fallback_avoids_exit_3(self, tmp_path, capsys):
        f = tmp_path / "nwo.poly"
        f.write_text("(u - v)*z + u^2 - w\n")
        code, out, _ = run(capsys, "cad", "--input", str(f),
                           "--order", "u,v,w,z",
                           "--fallback", "restart-with-collins")
        assert code == 0

    def test_internal_invariant_exit_4(self, tmp_path, capsys, monkeypatch):
        f = tmp_path / "p.poly"
        f.write_text("x^2 + y^2 - 1\n")
        monkeypatch.setattr(cli, "cylindricity_check",
                            lambda cad: ("a", "b", 1))
        code, _, err = run(capsys, "cad", "--input", str(f),
                           "--order", "x,y")
        assert code == 4 and "invariant" in err


class TestCad:
    def test_summary_reports_counts(self, tmp_path, capsys):
        f = tmp_path / "p.poly"
        f.write_text("# the unit circle\nx^2 + y^2 - 1\n")
        code, out, _ = run(capsys, "cad", "--input", str(f),
                           "--order", "x,y")
        assert code == 0 and "13" in out

    def test_json_round_trip(self, tmp_path, capsys):
        f = tmp_path / "p.poly"
        f.write_text("x^2 + y^2 - 1\n")
        code, out, _ = run(capsys, "cad", "--input", str(f),
                           "--order", "x,y", "--format", "json", "--cells")
        assert code == 0
        doc = json.loads(out)
        assert doc["verb"] == "cad"
        assert doc["cell_counts"]["2"] == 13
        assert doc["config"]["order"] == ["x", "y"]
        cells = [c for c in doc["cells"] if len(c["index"]) == 2]
        assert len(cells) == 13
        for c in cells:
            assert {"index", "sample", "signs", "description",
                    "dimension"} <= set(c)


class TestOtherVerbs:
    def test_project(self, tmp_path, capsys):
        f = tmp_path / "p.poly"
        f.write_text("a*x^2 + b*x + c\n")
        code, out, _ = run(capsys, "project", "--input", str(f),
                           "--order", "a,b,c,x")
        assert code == 0 and "4*a*c - b^2" in out

    def test_project_json_provenance(self, tmp_path, capsys):
        f = tmp_path / "p.poly"
        f.write_text("a*x^2 + b*x + c\n")
        code, out, _ = run(capsys, "project", "--input", str(f),
                           "--order", "a,b,c,x", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert [lv["level"] for lv in doc] == [4, 3, 2, 1]
        got = {p["text"]: (lv["level"], p["provenance"], p["parents"])
               for lv in doc for p in lv["polys"]}
        quad = "a*x^2 + b*x + c"
        assert got == {
            quad: (4, ["input"], []),
            "c": (3, ["coefficient"], [quad]),
            "4*a*c - b^2": (3, ["discriminant"], [quad]),
            "b": (2, ["coefficient", "resultant"],
                  ["4*a*c - b^2", quad, "c"]),
            "a": (1, ["coefficient"], ["4*a*c - b^2", quad]),
        }

    def test_qe_inline_formula(self, capsys):
        code, out, _ = run(capsys, "qe", "exists y. y^2 = x",
                           "--order", "x,y")
        assert code == 0
        assert "x = 0" in out and "0 < x" in out

    def test_qe_witness(self, capsys):
        code, out, _ = run(capsys, "qe", "exists x. x^2 - 2 = 0",
                           "--order", "x", "--witness")
        assert code == 0 and "true" in out

    def test_ccd_validate_ok(self, capsys):
        path = cli._fixture_path("parabola.ccd")
        code, out, _ = run(capsys, "ccd-validate", "--input", path)
        assert code == 0

    def test_ccd_validate_failure_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.ccd"
        bad.write_text('(ccd (vars x y)\n'
                       '  (node (eq "x") (node (eq "y^2 - x")) (node (neq)))\n'
                       '  (node (neq) (node (whole))))\n')
        code, _, _ = run(capsys, "ccd-validate", "--input", str(bad))
        assert code == 2

    def test_ccd_realize(self, capsys):
        path = cli._fixture_path("parabola.ccd")
        code, out, _ = run(capsys, "ccd-realize", "--input", path)
        assert code == 0 and "27" in out

    def test_bounds_spot_value(self, capsys):
        code, out, _ = run(capsys, "bounds", "--m", "2", "--d", "1",
                           "--n", "1", "--which", "collins-cells")
        assert code == 0 and "256" in out

    def test_bounds_grid(self, capsys):
        code, out, _ = run(capsys, "bounds", "--m", "1,2", "--d", "1,2",
                           "--n", "1,2", "--which", "all",
                           "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 2 * 2 * 2 * 5
        from cadkit.meta import BoundParams, bound
        for r in rows:
            params = BoundParams(r["m"], r["d"], r["l"], r["n"])
            assert int(r["value"]) == bound(params, r["which"])

    def test_gen_dh(self, capsys):
        code, out, _ = run(capsys, "gen-dh", "--m", "2")
        assert code == 0 and "exists z2" in out and "forall" in out

    def test_fixtures_all_pass(self, capsys):
        code, out, _ = run(capsys, "fixtures")
        assert code == 0
        assert "7/7" in out
