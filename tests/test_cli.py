import ast
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import _argparse_reference
import pytest

from commvar import census, cli, gf, matgf, polyring, typea_group

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, _ = run(capsys, argv)
    return code, json.loads(out)


def test_construct_weyl(capsys):
    code, doc = run_json(capsys, ["construct", "weyl", "--p", "2", "--alpha", "0", "--beta", "0"])
    assert code == 0
    assert doc["A"] == "0,0;1,0" and doc["B"] == "0,1;0,0"
    assert doc["commutator_is_identity"] is True
    assert doc["algebra_dimension"] == 4


def test_construct_blockpair(capsys):
    code, doc = run_json(capsys, ["construct", "blockpair", "--p", "2", "--r", "2"])
    assert code == 0
    assert doc["regular"] is True
    assert doc["invariant_factors"] == ["t^4"]
    assert doc["kernel_action"]["multiplier_ok"] is True
    assert doc["xp_nonzero"] is True


def test_construct_group(capsys):
    code, doc = run_json(capsys, ["construct", "group", "--n", "2", "--d", "2", "--q", "3"])
    assert code == 0
    assert doc["[D,rho]"] == "zeta*I"
    assert doc["zeta"] == "2"
    assert doc["rho"] == "0,1;1,0"


def test_construct_splitpair(capsys):
    code, doc = run_json(
        capsys,
        ["construct", "splitpair", "--p", "2", "--r", "2", "--a", "0,1", "--b", "0,0"],
    )
    assert code == 0
    assert doc["joint_centralizer_dimension"] == 2
    assert doc["scalar_pairs_distinct"] is True


@pytest.mark.parametrize("argv", [["--p", "3", "--r", "2"], ["--p", "2", "--k", "2", "--r", "3"]])
def test_verify_weyl_builds_no_splitting_field(capsys, monkeypatch, argv):
    # block_divisibility reads the block sizes off primary_data's partitions
    def refuse(*args):
        raise RuntimeError("the weyl suite must not build a splitting field")

    monkeypatch.setattr(matgf, "jordan_type", refuse)
    monkeypatch.setattr(matgf, "splitting_field", refuse)
    code, doc = run_json(capsys, ["verify", "--suite", "weyl"] + argv)
    assert code == 0
    assert [c["status"] for c in doc["checks"]] == ["pass"] * 3


def test_verify_suites(capsys):
    code, doc = run_json(capsys, ["verify", "--suite", "weyl", "--p", "3", "--r", "2"])
    assert code == 0
    assert {c["name"] for c in doc["checks"]} == {
        "algebra_dimension_p2",
        "solution_family",
        "block_divisibility",
    }
    assert all(c["status"] == "pass" for c in doc["checks"])

    code, doc = run_json(capsys, ["verify", "--suite", "group", "--n", "2", "--d", "2", "--q", "3"])
    assert code == 0
    assert all(c["status"] == "pass" for c in doc["checks"])
    coset_check = next(c for c in doc["checks"] if c["name"] == "solution_coset_law")
    assert coset_check["mode"] == "exhaustive"

    code, doc = run_json(capsys, ["verify", "--suite", "group", "--n", "2", "--d", "2", "--q", "5"])
    assert code == 0
    coset_check = next(c for c in doc["checks"] if c["name"] == "solution_coset_law")
    assert coset_check["mode"] == "sampled" and coset_check["status"] == "pass"

    code, doc = run_json(capsys, ["verify", "--suite", "lie-trace", "--n", "2", "--p", "3"])
    assert code == 0
    check = doc["checks"][0]
    assert check["name"] == "trace_obstruction" and check["status"] == "pass"
    assert check["count"] == "0" and check["brute_count"] == "0"

    code, doc = run_json(capsys, ["verify", "--suite", "lie-trace", "--n", "2", "--p", "2"])
    assert code == 0
    assert doc["checks"][0]["status"] == "skipped"

    code, doc = run_json(capsys, ["verify", "--suite", "canon"])
    assert code == 0
    assert all(c["status"] == "pass" for c in doc["checks"])


def test_verify_refuses_nonpositive_n_and_d(capsys):
    # 0 % p == 0 and a ValueError skip would pass these silently
    for argv, message in [
        (["group", "--n", "-2", "--d", "1"], "n and d must be positive"),
        (["group", "--d", "0"], "n and d must be positive"),
        (["lie-trace", "--n", "0"], "n must be positive"),
        (["all", "--n", "0"], "n and d must be positive"),
    ]:
        code, out, err = run(capsys, ["verify", "--suite", *argv])
        assert (code, out, err) == (2, "", "error: %s\n" % message), argv
    # the real skips stay: d does not divide n, no zeta of order d in F_q
    for argv in (["--n", "3", "--d", "2"], ["--q", "2"]):
        code, doc = run_json(capsys, ["verify", "--suite", "group", *argv])
        assert code == 0
        assert [c["status"] for c in doc["checks"]] == ["skipped"] * 2


def test_sampled_coset_law_meets_the_brute_walk(capsys, monkeypatch):
    # (3, 3, 4) samples its x (10 random ones and 5 conjugates of block
    # matrices), and each still meets the brute solution walk, so a walk
    # that is off by one fails the law
    group_solutions = census._group_solutions
    monkeypatch.setattr(census, "_group_solutions", lambda x, zeta: group_solutions(x, zeta) + 1)
    code, doc = run_json(capsys, ["verify", "--suite", "group", "--n", "3", "--d", "3", "--q", "4"])
    check = next(c for c in doc["checks"] if c["name"] == "solution_coset_law")
    assert code == 1 and doc["ok"] is False
    assert (check["mode"], check["status"], check["failures"]) == ("sampled", "fail", 15)


def test_sampled_coset_law_tests_witnesses_outside_the_brute_walk(capsys):
    # q^(n^2) exceeds --max-brute here, so only the seeded conjugates of
    # block matrices, which lie in W, give the law something to check
    for n, d, q in ((6, 2, 3), (4, 4, 5)):
        code, doc = run_json(
            capsys, ["verify", "--suite", "group", "--n", str(n), "--d", str(d), "--q", str(q)]
        )
        check = next(c for c in doc["checks"] if c["name"] == "solution_coset_law")
        assert code == 0 and check["mode"] == "sampled" and check["status"] == "pass"
        assert check["witnesses"] >= 5, (n, d, q)


def test_similarity_failures_count_the_disagreeing_pairs(capsys, monkeypatch):
    # give the class of diag(1, 2) over F_3 the factors of the Jordan block
    # J_2(1): the check must fail, on exactly the pairs of the literal loop
    f3 = gf.field(3)
    real = matgf.invariant_factors
    diag_factors = real(matgf.Mat.from_text(f3, "1,0;0,2"))
    jordan_factors = real(matgf.Mat.from_text(f3, "1,1;0,1"))

    def merged(m):
        factors = real(m)
        return jordan_factors if factors == diag_factors else factors

    monkeypatch.setattr(matgf, "invariant_factors", merged)
    code, doc = run_json(capsys, ["verify", "--suite", "canon"])
    check = next(c for c in doc["checks"] if c["name"] == "invariant_factor_similarity")
    expected = 0
    for q in (2, 3):
        spec = gf.field(q)
        mats = list(census._all_matrices(spec, 2))
        gl = [(g, g.inverse()) for g in mats if g.is_invertible()]
        orbit = {a: {g @ a @ g_inv for g, g_inv in gl} for a in mats}
        expected += sum(
            (merged(a) == merged(b)) != (b in orbit[a]) for a in mats for b in mats
        )
    assert expected == 2 * 12 * 8  # both orders of the two classes, of sizes 12 and 8
    assert code == 1 and doc["ok"] is False
    assert (check["status"], check["failures"]) == ("fail", expected)


def test_count_lie_with_expect(capsys):
    code, doc = run_json(
        capsys, ["count", "lie", "--p", "2", "--n", "2", "--qs", "2,4,8", "--expect"]
    )
    assert code == 0
    assert doc["fitted_dimension"] == 5 and doc["expected_dimension"] == 5
    assert doc["match"] is True
    assert [c["count"] for c in doc["counts"]] == ["24", "960", "32256"]


def test_count_strategy_both(capsys):
    code, doc = run_json(
        capsys,
        ["count", "lie", "--p", "2", "--n", "2", "--qs", "2,4", "--strategy", "both"],
    )
    assert code == 0
    strategies = {(c["q"], c["strategy"]): c["count"] for c in doc["counts"]}
    assert strategies[(2, "class")] == strategies[(2, "brute")] == "24"
    assert strategies[(4, "class")] == strategies[(4, "brute")] == "960"


def test_count_group_expect_mismatch_is_exit_1(capsys, monkeypatch):
    # the counts at q in {3,9} fit exponent ~5.62, rounding to 6, but
    # --expect reads the exact degree 5, so only a wrong closed form fails
    argv = ["count", "group", "--n", "2", "--d", "2", "--qs", "3,9", "--expect"]
    code, out, err = run(capsys, argv)
    assert code == 0 and "--expect failed" not in err
    doc = json.loads(out)
    assert doc["point_count_polynomial"] == "q^5-2*q^4+2*q^2-q"
    assert doc["d"] == 2 and doc["zeta"]["3"] == "2"

    monkeypatch.setattr(
        typea_group, "group_dims",
        lambda n, d: typea_group.GroupDims(n, d, n * n + n, n * n + n // d - n),
    )
    code, out, err = run(capsys, argv)
    assert code == 1
    assert [line for line in err.splitlines() if line.startswith("--expect")] == [
        "--expect failed: exact dimension 5, expected 6"
    ]
    doc = json.loads(out)
    assert doc["expected_dimension"] == 6 and doc["match"] is False


def test_count_group_brute_over_gf9(capsys):
    # |GL_2(9)|^2 = 5760^2 pairs, but the scan walks 9^4 lanes of W and the
    # solutions of W's orbit representatives
    code, doc = run_json(
        capsys, ["count", "group", "--n", "2", "--d", "2", "--qs", "9", "--strategy", "both"]
    )
    assert code == 0
    assert [c["count"] for c in doc["counts"]] == ["46080", "46080"]


def test_count_with_more_than_4300_digits(capsys):
    # |GL_48(97)| * 96 has about 4600 digits, past the default limit of
    # int-to-str conversion
    code, doc = run_json(capsys, ["count", "group", "--n", "48", "--d", "48", "--qs", "97"])
    assert code == 0
    poly = census.point_count_polynomial("group", 48, d=48)
    assert doc["counts"][0]["count"] == str(Decimal(poly(97)))
    assert len(doc["counts"][0]["count"]) > 4300


def test_count_w_expect(capsys):
    code, doc = run_json(
        capsys, ["count", "W", "--n", "2", "--d", "2", "--qs", "3,9", "--expect"]
    )
    assert code == 0
    assert doc["fitted_dimension"] == 3 and doc["match"] is True


def test_count_w_brute_at_n3(capsys):
    # the brute scan walks all 4^9 matrices of M_3(F_4) and meets the polynomial
    argv = ["count", "W", "--n", "3", "--d", "3", "--qs", "4", "--strategy", "both"]
    code, doc = run_json(capsys, argv)
    assert code == 0
    assert [c["count"] for c in doc["counts"]] == ["12480", "12480"]


def test_count_empty_lie_variety(capsys):
    # p does not divide n: the trace obstruction leaves no points, and there
    # is no growth exponent to fit
    code, doc = run_json(capsys, ["count", "lie", "--p", "3", "--n", "2", "--qs", "3,9"])
    assert code == 0
    assert [c["count"] for c in doc["counts"]] == ["0", "0"]
    assert doc["point_count_polynomial"] == "0"
    for key in ("exact_dimension", "fitted_dimension", "raw_exponent", "residual", "match"):
        assert doc[key] is None, key


def test_count_empty_lie_variety_with_expect(capsys):
    # expected_dimension is null there, and --expect asks for every count 0
    code, out, err = run(
        capsys, ["count", "lie", "--p", "3", "--n", "2", "--qs", "3,9", "--expect"]
    )
    assert code == 0 and err == ""
    assert [c["count"] for c in json.loads(out)["counts"]] == ["0", "0"]


@pytest.mark.parametrize("p,qs", [("2", "2,4"), ("3", "3,9")])
def test_count_commuting_expects_its_dimension_in_every_characteristic(capsys, p, qs):
    # the commuting variety, [A, B] = cI at c = 0, has dimension n^2 + n
    code, doc = run_json(
        capsys, ["count", "commuting", "--p", p, "--n", "2", "--qs", qs, "--expect"]
    )
    assert code == 0
    assert doc["expected_dimension"] == 6 and doc["match"] is True


def test_count_lie_rejects_c(capsys):
    # every c != 0 gives the c = 1 count (B -> cB), and c = 0 is `count commuting`
    with pytest.raises(SystemExit) as exc:
        cli.main(["count", "lie", "--p", "2", "--n", "2", "--qs", "2,4", "--c", "0"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --c" in capsys.readouterr().err


def test_count_expect_single_q_says_why(capsys):
    # one q leaves nothing to fit, but the exact degree still decides
    code, out, err = run(capsys, ["count", "commuting", "--n", "2", "--qs", "2", "--expect"])
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["fitted_dimension"] is None
    assert doc["exact_dimension"] == doc["expected_dimension"] == 6
    assert doc["match"] is True


@pytest.mark.parametrize(
    "argv,fitted",
    [
        (["commuting", "--n", "4", "--qs", "2,4"], 19),
        (["group", "--n", "2", "--d", "2", "--qs", "3,9"], 6),
        (["group", "--n", "30", "--d", "1", "--qs", "2,4"], 931),
        (["group", "--n", "1", "--d", "1", "--qs", "2,4"], 3),
        (["commuting", "--n", "2", "--qs", "2"], None),
        # 8 is no power of 4: the fit is left out, the exact degree decides
        (["commuting", "--n", "2", "--qs", "4,8"], None),
    ],
)
def test_count_expect_reads_the_exact_degree(capsys, argv, fitted):
    # the two-point fit misses these dimensions at small q; the exact
    # polynomial's degree does not, and the fit stays as printed
    code, doc = run_json(capsys, ["count", *argv, "--expect"])
    assert code == 0
    assert doc["match"] is True
    assert doc["exact_dimension"] == doc["expected_dimension"]
    assert doc["fitted_dimension"] == fitted
    if fitted is None:
        assert doc["raw_exponent"] is None and doc["residual"] is None


def test_cli_import_leaves_numpy_out():
    # neither importing the CLI nor a run imports numpy, an argument parser,
    # or the dataclasses machinery
    code = (
        "import sys, commvar.cli\n"
        "names = ('numpy', 'argparse', 'gettext', 'dataclasses', 'inspect')\n"
        "print([m for m in names if m in sys.modules])\n"
        "commvar.cli.main(['count', 'commuting', '--n', '2', '--qs', '2'])\n"
        "print([m for m in names if m in sys.modules])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0] == lines[-1] == "[]"
    assert json.loads("\n".join(lines[1:-1]))["counts"][0]["count"] == "88"


def test_cli_import_builds_no_field():
    # field tables are built when a field is constructed; importing the CLI
    # constructs none, so start-up pays for no table
    code = (
        "import commvar.cli\n"
        "from commvar import gf\n"
        "print(gf._field.cache_info().currsize,"
        " gf._smallest_primitive_idx.cache_info().currsize)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "0 0\n"


def test_count_commuting(capsys):
    code, doc = run_json(
        capsys, ["count", "commuting", "--n", "2", "--qs", "2,4", "--expect"]
    )
    assert code == 0
    assert doc["fitted_dimension"] == 6 and doc["match"] is True


def test_classes_command(capsys):
    code, doc = run_json(capsys, ["classes", "--n", "2", "--q", "3"])
    assert code == 0
    assert doc["count"] == 12  # q^2 + q classes of M_2(F_q)
    assert doc["total_class_size"] == doc["expected_total"] == "81"
    code, doc = run_json(capsys, ["classes", "--n", "2", "--q", "3", "--invertible"])
    assert code == 0
    assert doc["total_class_size"] == "48"


def _classes_doc_reference(n, q, invertible):
    """The classes report as a dict, each class's numbers from its primary data."""
    spec = cli._field_from_q(q)
    classes = census.enumerate_classes(n, spec, invertible)
    order = census.gl_order(n, q)
    entries = []
    for c in classes:
        centralizer = census.centralizer_order_from_primary(c.data, q)
        entries.append({
            "data": [[f.pretty(), list(lam)] for f, lam in c.data],
            "class_size": str(order // centralizer),
            "centralizer_order": str(centralizer),
            "centralizer_dimension": census.dim_centralizer_from_primary(c.data),
        })
    total = str(sum(int(e["class_size"]) for e in entries))
    expected = str(order if invertible else q ** (n * n))
    return {
        "command": "classes",
        "n": n,
        "q": q,
        "invertible_only": invertible,
        "count": len(classes),
        "total_class_size": total,
        "expected_total": expected,
        "classes": entries,
        "ok": total == expected,
    }


@pytest.mark.parametrize("invertible", [False, True])
@pytest.mark.parametrize("q", [2, 3, 4, 8, 9])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_classes_report_equals_stdlib_encoding(capsys, n, q, invertible):
    argv = ["classes", "--n", str(n), "--q", str(q)] + ["--invertible"] * invertible
    code, out, _ = run(capsys, argv)
    assert code == 0
    expected = json.dumps(_classes_doc_reference(n, q, invertible), indent=2) + "\n"
    # a bool, not the strings: pytest's diff of multi-megabyte reports runs for minutes
    same = out == expected
    assert same, _first_difference(out, expected)


def _first_difference(out, expected):
    got, want = out.splitlines(), expected.splitlines()
    i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    return "line %d: %r != %r" % (i + 1, got[i : i + 1], want[i : i + 1])


def test_classes_output_file_and_limit(capsys, tmp_path):
    path = tmp_path / "classes.json"
    code, out, _ = run(capsys, ["--output", str(path), "classes", "--n", "3", "--q", "4"])
    assert code == 0
    assert path.read_text() == out
    code, out, err = run(capsys, ["--max-classes", "3", "classes", "--n", "2", "--q", "3"])
    assert code == 2 and out == "" and "exceeds limit 3" in err


# sha256 of stdout as commvar wrote it before the report was written in pieces
CLASSES_SHA256 = {
    ("4", "8"): "5b36401497d28b421e8b59c4f62b22b42a651d1fe04bdfed8a954a03c5a4b411",
    ("3", "9", "--invertible"): "98c2edf2dde5fd5757c5f78e706b98540d07de7d3d0a57f14c5e016829e044c7",
}


@pytest.mark.parametrize("case", sorted(CLASSES_SHA256))
def test_classes_report_bytes_are_pinned(capsys, case):
    code, out, _ = run(capsys, ["classes", "--n", case[0], "--q", case[1], *case[2:]])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CLASSES_SHA256[case]


def test_classes_output_file_in_pieces(capsys, tmp_path):
    # 4,744 entries: more than one block of cli._BLOCK
    assert 4744 > cli._BLOCK
    path = tmp_path / "classes.json"
    code, out, _ = run(capsys, ["--output", str(path), "classes", "--n", "4", "--q", "8"])
    assert code == 0
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == CLASSES_SHA256[("4", "8")] and path.read_text() == out


@pytest.mark.parametrize("block", [1, 4, 5, 12, 13])
def test_classes_report_at_every_block_size(capsys, monkeypatch, block):
    # 12 classes: blocks that divide the count, and ones that do not
    monkeypatch.setattr(cli, "_BLOCK", block)
    code, out, _ = run(capsys, ["classes", "--n", "2", "--q", "3"])
    assert code == 0
    assert out == json.dumps(_classes_doc_reference(2, 3, False), indent=2) + "\n"


def test_classes_limit_boundary_is_the_class_count(capsys):
    code, out, _ = run(capsys, ["--max-classes", "4744", "classes", "--n", "4", "--q", "8"])
    assert code == 0 and json.loads(out)["count"] == 4744
    code, out, err = run(capsys, ["--max-classes", "4743", "classes", "--n", "4", "--q", "8"])
    assert code == 2 and out == ""
    assert err == "error: class enumeration at n=4 q=8 exceeds limit 4743\n"


def test_classes_refused_from_the_count_before_walking(capsys, monkeypatch):
    def no_walk(spec, d):
        raise AssertionError("irreducibles of degree %d enumerated" % d)

    monkeypatch.setattr(polyring, "irreducibles_of_degree", no_walk)
    code, out, err = run(capsys, ["classes", "--n", "30", "--q", "2"])
    assert code == 2 and out == ""
    assert err == "error: class enumeration at n=30 q=2 exceeds limit 200000\n"


def test_src_raises_no_bare_assertion_error():
    # invariants raise MathCheckFailed, which names the failure and is
    # still caught as an AssertionError by the CLI
    src = Path(cli.__file__).parent
    offenders = [
        "%s:%d" % (path.name, i)
        for path in sorted(src.glob("*.py"))
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if "raise AssertionError" in line
    ]
    assert offenders == []


def test_src_stores_no_unread_name():
    # a name a function assigns and never reads is a dead store; nested
    # functions are scanned with their enclosing one, so closures count
    src = Path(cli.__file__).parent
    offenders = set()
    for path in sorted(src.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            stored, loaded = {}, set()
            for node in ast.walk(fn):
                if isinstance(node, ast.Name):
                    if isinstance(node.ctx, ast.Store):
                        stored.setdefault(node.id, node.lineno)
                    else:
                        loaded.add(node.id)
            offenders |= {
                "%s:%d %s" % (path.name, line, name)
                for name, line in stored.items()
                if name not in loaded and name != "_"
            }
    assert sorted(offenders) == []


def test_src_defines_no_orphan():
    # every module-level def or class is loaded somewhere in src, as a name
    # or an attribute, or is exported by commvar/__init__.py
    src = Path(cli.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    used = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
    used |= {
        alias.asname or alias.name
        for node in trees["__init__.py"].body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    offenders = [
        "%s:%d %s" % (name, node.lineno, node.name)
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in used
    ]
    assert offenders == []


def test_src_reads_no_environment():
    # every setting comes from the command line or an explicit argument
    src = Path(cli.__file__).parent
    offenders = [
        "%s:%d" % (path.name, i)
        for path in sorted(src.glob("*.py"))
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if "environ" in line or "getenv" in line
    ]
    assert offenders == []


def test_dims_commands(capsys):
    code, doc = run_json(capsys, ["dims", "lie", "--p", "2", "--n", "2"])
    assert code == 0
    assert doc["dim_C"] == 5 and doc["dims_pgl"] == [4, 4]
    assert doc["equal_dimension_exception"] is True
    code, doc = run_json(capsys, ["dims", "group", "--n", "3", "--d", "3"])
    assert code == 0
    assert doc["dim_V"] == 10 and doc["dim_W"] == 7


@pytest.mark.parametrize(
    "argv,message",
    [
        (["lie", "--p", "0", "--n", "4"], "p must be prime"),
        (["lie", "--p", "1", "--n", "4"], "p must be prime"),
        (["lie", "--p", "4", "--n", "4"], "p must be prime"),
        (["lie", "--p", "2", "--n", "0"], "n must be positive"),
        (["lie", "--p", "2", "--n", "-2"], "n must be positive"),
        (["group", "--n", "4", "--d", "0"], "n and d must be positive"),
        (["group", "--n", "-2", "--d", "2"], "n and d must be positive"),
    ],
)
def test_dims_rejects_invalid_input(capsys, argv, message):
    code, out, err = run(capsys, ["dims"] + argv)
    assert code == 2 and out == ""
    assert err == "error: %s\n" % message


def test_config_errors_exit_2(capsys):
    code, _, err = run(capsys, ["count", "group", "--n", "3", "--d", "2", "--qs", "3,9"])
    assert code == 2 and "error" in err
    # d must divide n for group and W alike, also for a single field size
    code, _, err = run(capsys, ["count", "W", "--n", "3", "--d", "2", "--qs", "3"])
    assert code == 2 and "d must divide n" in err
    code, _, err = run(capsys, ["count", "lie", "--n", "2", "--qs", "6,36"])
    assert code == 2
    code, _, err = run(capsys, ["count", "lie", "--p", "3", "--n", "2", "--qs", "2,4"])
    assert code == 2
    code, _, err = run(
        capsys,
        ["--max-brute", "10", "count", "lie", "--n", "2", "--qs", "2,4", "--strategy", "brute"],
    )
    assert code == 2
    code, _, err = run(
        capsys, ["count", "lie", "--p", "2", "--n", "0", "--qs", "2", "--strategy", "brute"]
    )
    assert code == 2 and err == "error: n must be positive\n"


@pytest.mark.parametrize(
    "q,expected", [(2, (2, 1)), (4, (2, 2)), (9, (3, 2)), (49, (7, 2)), (97, (97, 1)), (128, (2, 7))]
)
def test_prime_power(q, expected):
    assert cli._prime_power(q) == expected


@pytest.mark.parametrize("q", [0, 1, 6, 12, 100])
def test_prime_power_rejects(q):
    with pytest.raises(ValueError):
        cli._prime_power(q)


def test_env_var_does_not_set_brute_limit(capsys, monkeypatch):
    # --max-brute is the one way to set the brute limit
    monkeypatch.setenv("COMMVAR_MAX_BRUTE", "10")
    argv = ["count", "lie", "--n", "2", "--qs", "2,4", "--strategy", "brute"]
    code, _, _ = run(capsys, argv)
    assert code == 0
    code, _, err = run(capsys, ["--max-brute", "10"] + argv)
    assert code == 2 and "exceeds limit 10" in err


def test_byte_identical_output_for_identical_config(capsys):
    argv = ["--seed", "7", "verify", "--suite", "weyl", "--p", "2", "--r", "2"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    argv = ["count", "lie", "--p", "2", "--n", "2", "--qs", "2,4"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


def test_output_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, ["--output", str(path), "dims", "lie", "--p", "2", "--n", "4"])
    assert code == 0
    assert path.read_text() == out


def _readme_cli_examples() -> list[list[str]]:
    section = (ROOT / "README.md").read_text().split("## CLI", 1)[1].split("\n## ", 1)[0]
    return [line.split()[1:] for line in section.splitlines() if line.startswith("commvar ")]


def _bench_ops() -> list[list[str]]:
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    run_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_module)
    return [["--seed", "0"] + op.split() for ops in run_module.WORKLOADS.values() for op in ops]


_VALID_ARGV = [
    ["count", "lie", "--n=2", "--qs=2,4", "--p=2"],
    ["count", "commuting", "--n", "2", "--qs", "2", "--strat", "both", "--exp"],
    ["classes", "--n", "2", "--q", "3", "--inv"],
    ["count", "lie", "--n", "3", "--qs", "2", "--n", "2", "--strategy", "brute",
     "--strategy", "class"],
    ["construct", "weyl", "--p", "3", "--alpha", "-1", "--beta=-2"],
    ["construct", "splitpair", "--r", "1", "--a", "-1", "--b=-0.5"],
    ["--seed", "3", "--max-classes", "100", "--max-brute", "1000", "--output", "out.json",
     "dims", "lie", "--n", "4"],
    ["--se=4", "--max-c", "7", "--max-b=9", "--o", "x", "--seed", "5", "dims", "group", "--n", "4"],
    ["count", "--n", "2", "lie", "--qs", "2"],
    ["dims", "--n", "4", "--d", "4", "group"],
    ["verify", "--suite=all", "--q", "4"],
    ["construct", "group", "--bl", "1,0;0,1", "--block", "2,0;0,1", "--q", "3"],
]


@pytest.mark.parametrize("argv", _readme_cli_examples() + _bench_ops() + _VALID_ARGV, ids=" ".join)
def test_parser_matches_argparse_reference(argv):
    want = _argparse_reference.build_parser().parse_args(argv)
    assert vars(cli._parse_args(argv)) == vars(want)


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "lie", "--n", "2", "--qs", "2", "--foo"],
        ["count", "lie", "--qs", "2"],
        ["count", "lie", "--n", "2", "--qs", "2", "--strategy", "fast"],
        ["count", "lie", "--n", "x", "--qs", "2"],
        ["count", "lie", "--qs", "2", "--n"],
        [],
        ["--seed", "1"],
        ["--m", "5", "dims", "lie", "--n", "4"],
        ["dims", "lie", "--n", "4", "--max=5"],
        ["dims", "lie", "--n", "4", "--seed", "1"],
        ["count"],
        ["frob"],
        ["count", "tori", "--n", "2", "--qs", "2"],
        ["dims", "lie", "group", "--n", "4"],
        ["count", "lie", "--n", "2", "--qs", "2", "--expect=1"],
        ["dims", "lie", "--help=x"],
        ["construct", "weyl", "--alpha", "--beta", "1"],
        ["construct", "weyl", "--alpha", "-x"],
        ["--seed", "count", "lie"],
        ["verify", "--suite", "paper"],
    ],
    ids=lambda argv: " ".join(argv) or "no arguments",
)
def test_parser_rejects_as_argparse_reference(argv, capsys):
    errors = []
    for parse in (_argparse_reference.build_parser().parse_args, cli._parse_args):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        errors.append(err.splitlines()[-1])
    assert errors[0] == errors[1]


@pytest.mark.parametrize("argv", [[]] + [[name] for name in cli._COMMANDS],
                         ids=lambda argv: " ".join(argv) or "top level")
def test_help_shows_the_table(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    entry = cli._COMMANDS[argv[0]] if argv else cli._TOP
    words = [entry[1]] + [text for opt in entry[3] for text in (opt[0], opt[3])]
    if not argv:
        words += [text for name, cmd in cli._COMMANDS.items() for text in (name, cmd[1])]
    assert out.startswith("usage: commvar")
    assert [word for word in words if word not in out] == []
