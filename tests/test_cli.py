import json
import struct

import numpy as np
import pytest

from factorchain import (
    PreparedSampler,
    gremban_embed,
    gremban_project,
    grid2d,
    load_operator,
    make_field,
    read_matrix,
    sample,
    sdd_mixed,
    solve,
    write_matrix,
)
from factorchain.cli import main
from factorchain.serialize import MAGIC

from conftest import empty_level_container


@pytest.fixture
def grid_file(tmp_path):
    path = tmp_path / "m.mtx"
    assert main(["gen", "--kind", "grid2d", "--size", "4",
                 "--out", str(path)]) == 0
    return path


def factored(tmp_path, grid_file, *extra):
    out = tmp_path / "op.fcop"
    rep = tmp_path / "factor.json"
    rc = main(["factor", str(grid_file), "--eps", "0.3",
               "--out", str(out), "--report", str(rep), *extra])
    return rc, out, rep


# --------------------------------------------------------------------- gen


def test_gen_writes_readable_matrix(grid_file):
    m, comments = read_matrix(grid_file)
    assert m.n == 16
    assert any("grid2d" in c for c in comments)


def test_gen_kinds(tmp_path):
    for kind, size in (("path", "6"), ("random_regular", "8"),
                       ("sdd_mixed", "6")):
        out = tmp_path / f"{kind}.mtx"
        assert main(["gen", "--kind", kind, "--size", size,
                     "--out", str(out)]) == 0
        assert out.exists()


def test_gen_invalid_params_exit_2(tmp_path):
    rc = main(["gen", "--kind", "random_regular", "--size", "5",
               "--degree", "3", "--out", str(tmp_path / "x.mtx")])
    assert rc == 2


# ------------------------------------------------------------------ factor


def test_factor_and_check_round_trip(tmp_path, grid_file):
    rc, out, rep = factored(tmp_path, grid_file)
    assert rc == 0
    report = json.loads(rep.read_text())
    assert report["schema_version"] == 1
    assert report["chain"]["d"] >= 1
    assert report["refinement"]["degree"] >= 1
    op, meta = load_operator(out)
    assert meta["lifted"] is False
    assert main(["check", str(grid_file), str(out), "--eps", "0.3"]) == 0


def test_factor_rejects_non_sddm_without_gremban(tmp_path):
    mfile = tmp_path / "sdd.mtx"
    write_matrix(mfile, sdd_mixed(8, seed=1))
    rc = main(["factor", str(mfile), "--out", str(tmp_path / "x.fcop")])
    assert rc == 2


def test_factor_gremban_lifts_and_checks(tmp_path):
    mfile = tmp_path / "sdd.mtx"
    write_matrix(mfile, sdd_mixed(8, seed=1))
    out = tmp_path / "op.fcop"
    rc = main(["factor", str(mfile), "--gremban", "--eps", "0.4",
               "--out", str(out)])
    assert rc == 0
    op, meta = load_operator(out)
    assert meta["lifted"] is True
    assert meta["n_original"] == 8
    assert op.input_dim == 16
    assert main(["check", str(mfile), str(out), "--eps", "0.4"]) == 0


def test_factor_gremban_requires_inverse(tmp_path):
    mfile = tmp_path / "sdd.mtx"
    write_matrix(mfile, sdd_mixed(8, seed=1))
    rc = main(["factor", str(mfile), "--gremban", "--p", "0.5",
               "--out", str(tmp_path / "x.fcop")])
    assert rc == 2


def test_factor_rejects_bad_exponent(tmp_path, grid_file):
    rc = main(["factor", str(grid_file), "--p", "1.5",
               "--out", str(tmp_path / "x.fcop")])
    assert rc == 2


def test_factor_missing_input_exit_2(tmp_path):
    rc = main(["factor", str(tmp_path / "nope.mtx"),
               "--out", str(tmp_path / "x.fcop")])
    assert rc == 2


def test_factor_general_exponent(tmp_path, grid_file):
    out = tmp_path / "half.fcop"
    rc = main(["factor", str(grid_file), "--p", "0.5", "--eps", "0.4",
               "--out", str(out)])
    assert rc == 0
    op, _ = load_operator(out)
    assert op.kind == "chain"
    assert op.chain.p == 0.5
    # reported budget is what the dense check certifies against
    assert main(["check", str(grid_file), str(out),
                 "--eps", str(2.0 * op.chain.eps_total)]) == 0


def test_factor_p_zero_fast_path(tmp_path, grid_file):
    out = tmp_path / "zero.fcop"
    assert main(["factor", str(grid_file), "--p", "0", "--out", str(out)]) == 0
    op, _ = load_operator(out)
    assert op.chain.d == 0
    assert main(["check", str(grid_file), str(out), "--eps", "1e-9"]) == 0


def test_factor_no_refine_keeps_crude_chain(tmp_path, grid_file):
    out = tmp_path / "crude.fcop"
    assert main(["factor", str(grid_file), "--no-refine",
                 "--out", str(out)]) == 0
    op, _ = load_operator(out)
    assert op.kind == "chain"


# ------------------------------------------------------------------- check


def test_check_failure_exit_1(tmp_path, grid_file):
    rc, out, _ = factored(tmp_path, grid_file)
    assert main(["check", str(grid_file), str(out), "--eps", "1e-9"]) == 1


def test_check_report_records_measurement(tmp_path, grid_file):
    rc, out, _ = factored(tmp_path, grid_file)
    rep = tmp_path / "check.json"
    assert main(["check", str(grid_file), str(out), "--eps", "0.3",
                 "--report", str(rep)]) == 0
    checks = json.loads(rep.read_text())["checks"]
    assert checks["passed"] is True
    assert 0.0 <= checks["eps_measured"] <= 0.3


def test_check_dimension_mismatch_exit_2(tmp_path, grid_file):
    rc, out, _ = factored(tmp_path, grid_file)
    other = tmp_path / "other.mtx"
    write_matrix(other, grid2d(3))
    assert main(["check", str(other), str(out)]) == 2


def test_check_too_large_for_dense_exit_2(tmp_path, grid_file):
    rc, out, _ = factored(tmp_path, grid_file)
    big = tmp_path / "big.mtx"
    write_matrix(big, grid2d(23))  # 529 > 512 dense-check limit
    assert main(["check", str(big), str(out)]) == 2


# ------------------------------------------------------------------ sample


def test_sample_deterministic_output(tmp_path, grid_file):
    rc, out, _ = factored(tmp_path, grid_file)
    s1, s2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    args = ["sample", str(out), "--count", "5", "--seed", "42"]
    assert main(args + ["--out", str(s1)]) == 0
    assert main(args + ["--out", str(s2)]) == 0
    assert s1.read_bytes() == s2.read_bytes()
    header = s1.read_text().splitlines()[0]
    assert header == ",".join(f"x{i}" for i in range(16))


def test_sample_bin_format_with_sidecar(tmp_path, grid_file):
    rc, out, _ = factored(tmp_path, grid_file)
    sfile = tmp_path / "s.bin"
    rep = tmp_path / "sample.json"
    assert main(["sample", str(out), "--count", "3", "--seed", "7",
                 "--format", "bin", "--out", str(sfile),
                 "--report", str(rep)]) == 0
    side = json.loads((tmp_path / "s.bin.json").read_text())
    assert side["n"] == 16 and side["count"] == 3 and side["seed"] == 7
    data = np.fromfile(sfile, dtype="<f8").reshape(3, 16)
    assert np.all(np.isfinite(data))
    report = json.loads(rep.read_text())
    assert report["gaussians_consumed"] == 3 * 16


def test_sample_with_potential_shifts_mean(tmp_path, grid_file):
    rc, out, _ = factored(tmp_path, grid_file)
    hfile = tmp_path / "h.txt"
    hfile.write_text("".join("1.0\n" for _ in range(16)))
    s = tmp_path / "s.csv"
    assert main(["sample", str(out), "--count", "200", "--seed", "1",
                 "--h", str(hfile), "--out", str(s)]) == 0
    data = np.array([[float(t) for t in l.split(",")]
                     for l in s.read_text().splitlines()[1:]])
    # mean solve of all-ones potential on the grid is strictly positive
    assert np.all(data.mean(axis=0) > 0.0)


def test_sample_rejects_non_inverse_operator(tmp_path, grid_file):
    out = tmp_path / "half.fcop"
    assert main(["factor", str(grid_file), "--p", "0.5",
                 "--out", str(out)]) == 0
    rc = main(["sample", str(out), "--count", "2",
               "--out", str(tmp_path / "s.csv")])
    assert rc == 2


def test_sample_malformed_container_exit_2(tmp_path):
    # a header that is a JSON list, not an object
    bad = tmp_path / "bad.fcop"
    bad.write_bytes(MAGIC + struct.pack("<Q", 2) + b"[]")
    rc = main(["sample", str(bad), "--count", "1",
               "--out", str(tmp_path / "s.csv")])
    assert rc == 2


def test_sample_container_smaller_than_its_n_exit_2(tmp_path, capsys):
    bad = tmp_path / "big.fcop"
    bad.write_bytes(empty_level_container(10**7, d=1))
    rc = main(["sample", str(bad), "--count", "1",
               "--out", str(tmp_path / "s.csv")])
    assert rc == 2
    assert "too large" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_sample_non_finite_potential_exit_2(tmp_path, grid_file, bad, capsys):
    _, out, _ = factored(tmp_path, grid_file)
    hfile = tmp_path / "h.txt"
    hfile.write_text("".join("1.0\n" for _ in range(15)) + bad + "\n")
    rc = main(["sample", str(out), "--count", "2", "--h", str(hfile),
               "--out", str(tmp_path / "s.csv")])
    assert rc == 2
    assert "NaN or infinity" in capsys.readouterr().err


def test_factor_size_line_beyond_entries_exit_2(tmp_path, capsys):
    # the size line alone would ask for 10^12 entries
    mfile = tmp_path / "m.mtx"
    mfile.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                     "3 3 1000000000000\n1 1 2.0\n")
    rc = main(["factor", str(mfile), "--out", str(tmp_path / "op.fcop")])
    assert rc == 2
    assert "expected 1000000000000 entries, found 1" in capsys.readouterr().err


def test_sample_gremban_projected_width(tmp_path):
    mfile = tmp_path / "sdd.mtx"
    write_matrix(mfile, sdd_mixed(8, seed=1))
    out = tmp_path / "op.fcop"
    assert main(["factor", str(mfile), "--gremban", "--out", str(out)]) == 0
    s = tmp_path / "s.csv"
    assert main(["sample", str(out), "--count", "4", "--seed", "0",
                 "--out", str(s)]) == 0
    header = s.read_text().splitlines()[0]
    assert header.count(",") == 7  # 8 columns, original width


# --------------------------------------------------------------------- env


def test_env_overrides(tmp_path, grid_file, monkeypatch):
    monkeypatch.setenv("FACTORCHAIN_EPS", "0.25")
    monkeypatch.setenv("FACTORCHAIN_SEED", "9")
    out = tmp_path / "op.fcop"
    rep = tmp_path / "r.json"
    assert main(["factor", str(grid_file), "--out", str(out),
                 "--report", str(rep)]) == 0
    report = json.loads(rep.read_text())
    assert report["config"]["eps"] == 0.25
    assert report["config"]["seed"] == 9


def test_env_format_override(tmp_path, grid_file, monkeypatch):
    rc, out, _ = factored(tmp_path, grid_file)
    monkeypatch.setenv("FACTORCHAIN_FORMAT", "bin")
    sfile = tmp_path / "s.out"
    assert main(["sample", str(out), "--count", "2",
                 "--out", str(sfile)]) == 0
    assert (tmp_path / "s.out.json").exists()


def test_flag_beats_env(tmp_path, grid_file, monkeypatch):
    monkeypatch.setenv("FACTORCHAIN_EPS", "0.9")
    rep = tmp_path / "r.json"
    assert main(["factor", str(grid_file), "--eps", "0.2",
                 "--out", str(tmp_path / "op.fcop"),
                 "--report", str(rep)]) == 0
    assert json.loads(rep.read_text())["config"]["eps"] == 0.2


@pytest.mark.parametrize("gremban", [False, True])
def test_sample_bin_matches_library_colouring(tmp_path, gremban):
    m = sdd_mixed(8, seed=1) if gremban else grid2d(4)
    mfile, out, sfile = tmp_path / "m.mtx", tmp_path / "op.fcop", tmp_path / "s.bin"
    write_matrix(mfile, m)
    assert main(["factor", str(mfile), "--eps", "0.4", "--out", str(out)]
                + (["--gremban"] if gremban else [])) == 0
    h = np.random.default_rng(2).standard_normal(m.n)
    hfile = tmp_path / "h.txt"
    hfile.write_text("".join(f"{float(v)!r}\n" for v in h))
    assert main(["sample", str(out), "--count", "6", "--seed", "13",
                 "--h", str(hfile), "--format", "bin", "--out", str(sfile)]) == 0

    op, _ = load_operator(out)
    field = make_field(m, h)
    assert (field.lifted is not None) == gremban
    if gremban:
        mean = gremban_project(solve(op, gremban_embed(h)))
    else:
        mean = solve(op, h)
    prep = PreparedSampler(field=field, operator=op, mean=mean,
                           eps=op.refinement.eps)
    batch = sample(prep, 6, seed=13)
    assert sfile.read_bytes() == np.ascontiguousarray(
        batch.samples, dtype="<f8").tobytes()


def test_threads_flag_is_gone(tmp_path, grid_file):
    with pytest.raises(SystemExit) as exc:
        main(["factor", str(grid_file), "--threads", "2",
              "--out", str(tmp_path / "op.fcop")])
    assert exc.value.code == 2
