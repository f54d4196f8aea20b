import io
import json

import pytest

from optreal.cli import run


def invoke(argv, stdin=None, monkeypatch=None):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_check_graphic():
    code, out, _ = invoke(["check", "4 3 2 2 1"])
    assert (code, out) == (0, "graphic\n")


def test_check_not_graphic_odd_sum():
    code, out, _ = invoke(["check", "4 3 2 1 1"])
    assert (code, out) == (1, "not graphic\n")


def test_check_not_graphic_even_sum():
    code, out, _ = invoke(["check", "4 3 1 1 1"])
    assert (code, out) == (1, "not graphic\n")


def test_degree_beyond_int64_is_not_graphic():
    # a degree of at least n is rejected before any fixed-width conversion
    code, out, err = invoke(["check", "9223372036854775808 1"])
    assert (code, out, err) == (1, "not graphic\n", "")
    for objective in ("mds", "mm"):
        code, out, err = invoke([objective, "value", "99999999999999999999 1"])
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "Traceback" not in err
        assert err.count("\n") == 1


def test_long_not_graphic_sequence_reports_a_short_error(tmp_path):
    n = 2 * 10**5
    path = tmp_path / "big.txt"
    path.write_text(" ".join([str(n)] + ["1"] * (n - 1)))
    for objective in ("mds", "mm"):
        for action in ("value", "realize"):
            code, out, err = invoke([objective, action, f"@{path}"])
            assert (code, out) == (1, "")
            assert err == (f"error: sequence of {n} degrees, starting "
                           f"(200000, 1, 1, 1, 1, 1, 1, 1, 1, 1), is not graphic\n")


def test_mds_value():
    code, out, _ = invoke(["mds", "value", "2 2 2"])
    assert (code, out) == (0, "1\n")


def test_mm_value():
    code, out, _ = invoke(["mm", "value", "2 2 1 1 1 1"])
    assert (code, out) == (0, "3\n")


def test_mm_realize_single_edge():
    code, out, _ = invoke(["mm", "realize", "1 1"])
    assert code == 0
    assert out == "1 2\nmatching: (1,2)\n"


def test_mds_realize_text_output_shape():
    code, out, _ = invoke(["mds", "realize", "4 3 2 2 1"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1].startswith("dominating-set: ")
    edge_lines = lines[:-1]
    edges = [tuple(map(int, line.split())) for line in edge_lines]
    assert all(u < v for u, v in edges)
    assert edges == sorted(edges)
    assert len(edges) == 6  # half the degree sum


def test_realize_json_report():
    code, out, _ = invoke(["mds", "realize", "2 2 2", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["n"] == 3
    assert report["degrees"] == [2, 2, 2]
    assert report["graphic"] is True
    assert report["objective"] == "mds"
    assert report["value"] == 1
    assert report["edges"] == [[1, 2], [1, 3], [2, 3]]
    assert report["certificate"] == {"type": "dominating-set", "members": [1]}
    assert isinstance(report["timing_ms"], float)


def test_realize_output_passes_own_verify(tmp_path):
    code, out, _ = invoke(["mds", "realize", "3 3 2 2 2 2"])
    assert code == 0
    lines = out.strip().splitlines()
    edges = "\n".join(lines[:-1]) + "\n"
    members = lines[-1].split(": ")[1].replace(" ", ",")
    path = tmp_path / "edges.txt"
    path.write_text(edges)
    code, out, _ = invoke(["verify", "--seq", "3 3 2 2 2 2",
                           "--edges", str(path), "--dominating", members])
    assert code == 0
    assert "degrees: ok" in out and "dominating: ok" in out


def test_mm_realize_output_passes_own_verify(tmp_path):
    code, out, _ = invoke(["mm", "realize", "4 3 2 2 1"])
    assert code == 0
    lines = out.strip().splitlines()
    pairs = lines[-1].split(": ")[1]
    pairs = ",".join(p.strip("()").replace(",", "-") for p in pairs.split())
    path = tmp_path / "edges.txt"
    path.write_text("\n".join(lines[:-1]) + "\n")
    code, out, _ = invoke(["verify", "--seq", "4 3 2 2 1",
                           "--edges", str(path), "--matching", pairs])
    assert code == 0
    assert "degrees: ok" in out and "matching: ok" in out


def test_verify_detects_bad_matching(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("1 2\n1 3\n2 3  # triangle\n")
    code, out, _ = invoke(["verify", "--seq", "2 2 2", "--edges", str(path),
                           "--matching", "1-2,2-3"])
    assert code == 1
    assert "matching: FAIL" in out


def test_verify_edge_file_errors(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("1 9\n")
    code, _, err = invoke(["verify", "--seq", "2 2 2", "--edges", str(path)])
    assert code == 1
    assert "error:" in err


def test_oracle_subcommand():
    code, out, _ = invoke(["oracle", "2 2 1 1 1 1", "--objective", "mds"])
    assert (code, out) == (0, "2\n")
    code, out, _ = invoke(["oracle", "2 2 1 1 1 1", "--objective", "mm"])
    assert (code, out) == (0, "3\n")


def test_oracle_limit_flag():
    code, _, err = invoke(["oracle", "1 1 1 1 1 1 1 1 1 1", "--objective", "mm"])
    assert code == 1 and "error:" in err
    code, out, _ = invoke(["oracle", "1 1 1 1 1 1 1 1 1 1", "--objective", "mm",
                           "--limit", "10"])
    assert (code, out) == (0, "5\n")


def test_oracle_limit_above_maximum_is_refused():
    code, out, err = invoke(["oracle", "1 1", "--objective", "mds", "--limit", "11"])
    assert (code, out) == (1, "")
    assert err == "error: enumeration limit 11 exceeds the maximum 10\n"


def test_sequence_from_file_and_stdin(tmp_path, monkeypatch):
    path = tmp_path / "seq.txt"
    path.write_text("2 2 2\n")
    code, out, _ = invoke(["mds", "value", f"@{path}"])
    assert (code, out) == (0, "1\n")
    monkeypatch.setattr("sys.stdin", io.StringIO("2 2 2\n"))
    code, out, _ = invoke(["check", "-"])
    assert (code, out) == (0, "graphic\n")


def test_domain_error_exit_code():
    code, _, err = invoke(["mds", "value", "4 3 2 1 1"])
    assert code == 1
    assert "error:" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        invoke(["bogus"])
    assert exc.value.code == 2


def test_missing_file_reports_error():
    code, _, err = invoke(["mds", "value", "@/nonexistent/seq.txt"])
    assert code == 1
    assert "error:" in err


def test_over_long_degree_token_is_one_short_error():
    # int() refuses more than sys.get_int_max_str_digits() digits
    code, out, err = invoke(["check", "1" * 5000 + " 1"])
    assert (code, out) == (1, "")
    assert err == (f"error: token {'1' * 40!r}... (5000 characters) "
                   "has more digits than int() reads\n")
    assert err.count("\n") == 1 and len(err) < 200


def test_edge_file_line_without_two_ids(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("1 2\n1 2 3\n")
    assert invoke(["verify", "--seq", "1 1", "--edges", str(path)]) == (
        1, "", f"error: {path}:2: expected two vertex ids, got '1 2 3'\n")


def test_verify_csv_errors(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("1 2\n")
    argv = ["verify", "--seq", "1 1", "--edges", str(path)]
    # the degree line comes out before the certificate is parsed
    assert invoke(argv + ["--dominating", "1,x"]) == (
        1, "degrees: ok\n", "error: bad vertex list '1,x'; expected comma-separated integers\n")
    assert invoke(argv + ["--matching", "1-2,1-2-3"]) == (
        1, "degrees: ok\n", "error: bad matching pair '1-2-3'; expected a-b\n")
    assert invoke(argv + ["--matching", "1-x"]) == (
        1, "degrees: ok\n", "error: bad matching pair '1-x'; expected integers\n")


def test_verify_skips_empty_matching_tokens(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("1 2\n")
    argv = ["verify", "--seq", "1 1", "--edges", str(path), "--matching"]
    assert invoke(argv + ["1-2,,"]) == invoke(argv + ["1-2"]) == (
        0, "degrees: ok\nmatching: ok\n", "")
