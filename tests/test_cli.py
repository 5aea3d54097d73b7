import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from factorchain import (
    PreparedSampler,
    SparsifyParams,
    build_chain,
    chain_operator,
    gremban_embed,
    gremban_project,
    grid2d,
    load_operator,
    make_field,
    normalize,
    operator_bytes,
    prepare,
    read_matrix,
    sample,
    SparseSymMatrix,
    save_operator,
    sdd_mixed,
    solve,
    validate_sddm,
    write_batch_bin,
    write_matrix,
)
from factorchain.chain import flops_per_sample
import factorchain.cli as cli_module
import factorchain.errors as errors_module
import factorchain.sparsify as sparsify_module
from factorchain.cli import main
from factorchain.oracle import DENSE_CHECK_LIMIT
from factorchain.sampler import REFINE_SHARE
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
        out, rep = tmp_path / f"{kind}.mtx", tmp_path / f"{kind}.json"
        assert main(["gen", "--kind", kind, "--size", size,
                     "--out", str(out), "--report", str(rep)]) == 0
        assert out.exists()
        # the seed is reported once, as the parsed flag in config
        report = json.loads(rep.read_text())
        assert "seed" not in report and report["config"]["seed"] == 0


def test_gen_invalid_params_exit_2(tmp_path):
    rc = main(["gen", "--kind", "random_regular", "--size", "5",
               "--degree", "3", "--out", str(tmp_path / "x.mtx")])
    assert rc == 2


ERROR_TYPES = [t for t in vars(errors_module).values()
               if isinstance(t, type) and issubclass(t, errors_module.FactorChainError)]


@pytest.mark.parametrize("error", ERROR_TYPES, ids=lambda t: t.__name__)
def test_every_package_error_exits_by_its_class(tmp_path, monkeypatch, capsys, error):
    # the exit code follows the class alone: 1 for a NumericalError, else 2
    def fail(*args, **kwargs):
        raise error(f"raised {error.__name__}")

    monkeypatch.setattr(cli_module, "path_graph", fail)
    rc = main(["gen", "--kind", "path", "--size", "4", "--out", str(tmp_path / "x.mtx")])
    assert rc == (1 if issubclass(error, errors_module.NumericalError) else 2)
    assert capsys.readouterr().err == f"error: raised {error.__name__}\n"


def test_the_numerical_errors_are_the_five_that_exit_1():
    numerical = {t.__name__ for t in ERROR_TYPES if issubclass(t, errors_module.NumericalError)}
    assert numerical == {"NumericalError", "ChainDivergedError", "NotPositiveDefiniteError",
                         "SpectrumEstimateFailedError", "SquareTooLargeError",
                         "NoConvergenceError"}


# ------------------------------------------------------------------ factor


def test_factor_and_check_round_trip(tmp_path, grid_file):
    rc, out, rep = factored(tmp_path, grid_file)
    assert rc == 0
    report = json.loads(rep.read_text())
    assert report["schema_version"] == 1
    assert report["refinement"]["degree"] >= 1
    assert report["refinement"]["certificate"] == "truncation"
    assert 0.0 < report["refinement"]["bound"] <= 0.15
    op, meta = load_operator(out)
    assert meta["lifted"] is False
    # the chain block is the stored chain: a 4 x 4 grid keeps no level
    assert report["chain"]["d"] == op.chain.d == 0
    assert report["chain"]["level_nnz"] == []
    # levels and refinement candidates interleave in one call, timed as refine_s
    assert report["timings"]["chain_s"] == 0.0 < report["timings"]["refine_s"]
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


@pytest.mark.parametrize("flags", [[], ["--gremban"], ["--gremban", "--p", "0.5"]],
                         ids=["plain", "gremban", "gremban_direct"])
def test_factor_rejects_non_sdd_exit_2(tmp_path, flags, capsys):
    # weakly dominant rows: neither SDDM nor liftable, whatever the flags
    mfile, out = tmp_path / "m.mtx", tmp_path / "x.fcop"
    write_matrix(mfile, SparseSymMatrix.from_dense(np.array([[1.0, 2.0], [2.0, 1.0]])))
    assert main(["factor", str(mfile), "--out", str(out)] + flags) == 2
    assert "not strictly diagonally dominant" in capsys.readouterr().err
    assert not out.exists()


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


def test_factor_refuses_no_refine_for_a_direct_exponent(tmp_path, grid_file, capsys):
    # only p = -1 has a refinement to skip, as only p = -1 can be lifted
    rc, out, _ = factored(tmp_path, grid_file, "--p", "-0.5", "--no-refine")
    assert rc == 2 and not out.exists()
    assert "--no-refine is only supported with p = -1" in capsys.readouterr().err


@pytest.mark.parametrize("flags,p", [(["--p", "-0.5"], -0.5), (["--no-refine"], -1.0)],
                         ids=["p_minus_half", "no_refine"])
def test_factor_reports_flops_of_a_direct_chain(tmp_path, grid_file, flags, p):
    rc, out, rep = factored(tmp_path, grid_file, "--seed", "0", *flags)
    assert rc == 0
    m, _ = read_matrix(grid_file)
    split = normalize(m, validate_sddm(m))
    op = chain_operator(split, build_chain(split, p, 0.3, SparsifyParams(eps=1.0)))
    chain = json.loads(rep.read_text())["chain"]
    # one apply of the direct chain per sample: sum_i t_i nnz(X_i), and n^2
    # for the dense factor its filled X_d is kept as
    assert chain["dense_terminal_level"] == chain["d"] == op.chain.d
    assert chain["flops_per_sample"] == flops_per_sample(op) == sum(
        t * nnz for t, nnz in zip(chain["poly_degrees"], chain["level_nnz"])) + 16 * 16
    assert flops_per_sample(load_operator(out)[0]) == flops_per_sample(op)
    assert "chosen_degree" not in chain


def test_factor_reports_the_dense_terminal(tmp_path):
    # an expander's levels fill: a direct chain ends at the first filled one
    mfile, out, rep = tmp_path / "m.mtx", tmp_path / "op.fcop", tmp_path / "r.json"
    assert main(["gen", "--kind", "random_regular", "--size", "64", "--seed", "2",
                 "--out", str(mfile)]) == 0
    assert main(["factor", str(mfile), "--p", "-0.5", "--eps", "0.5",
                 "--out", str(out), "--report", str(rep)]) == 0
    chain = json.loads(rep.read_text())["chain"]
    op, _ = load_operator(out)
    assert "dense_suffix" not in chain
    assert chain["dense_terminal_level"] == chain["d"] == op.chain.d == 2
    assert op.chain.terminal.shape == (64, 64)
    assert not any(2 * nnz >= 64 * 64 for nnz in chain["level_nnz"])


def test_factor_squares_exactly_above_the_old_size_switch(tmp_path):
    # n = 4,225 once switched to the sampled walk, which ran out of memory
    mfile, out, rep = tmp_path / "m.mtx", tmp_path / "op.fcop", tmp_path / "r.json"
    assert main(["gen", "--kind", "grid2d", "--size", "65", "--out", str(mfile)]) == 0
    assert main(["factor", str(mfile), "--out", str(out), "--report", str(rep)]) == 0
    report = json.loads(rep.read_text())
    assert report["n"] == 65 * 65 and report["chain"]["d"] == 0
    assert "exact" not in report["config"]


def test_factor_refuses_a_square_past_the_cap(tmp_path, grid_file, monkeypatch, capsys):
    monkeypatch.setattr(sparsify_module, "SQUARE_BYTE_CAP", 0)
    rc, out, _ = factored(tmp_path, grid_file, "--p", "-0.5")
    assert rc == 1 and not out.exists()
    assert capsys.readouterr().err.startswith("error: squaring a level")


def test_factor_and_check_a_refined_chain_that_ends_in_a_dense_factor(tmp_path):
    # kappa about 7.9e6: factor --eps 0.0125 stores prepare(field, 0.1)'s
    # operator, at most 5 sparse levels and F, and check certifies it at 0.1
    mfile, out, rep = tmp_path / "m.mtx", tmp_path / "op.fcop", tmp_path / "r.json"
    write_matrix(mfile, grid2d(16, slack=1e-6))
    assert main(["factor", str(mfile), "--eps", str(0.1 / REFINE_SHARE),
                 "--out", str(out), "--report", str(rep)]) == 0
    chain = json.loads(rep.read_text())["chain"]
    assert chain["d"] <= 5 and chain["dense_terminal_level"] == chain["d"]
    assert main(["check", str(mfile), str(out), "--eps", "0.1"]) == 0


def test_factor_prints_the_operator_error(tmp_path, grid_file, capsys):
    # a refined operator is certified to the refinement's eps; only a plain
    # chain reports its sandwich sum
    rc, out, rep = factored(tmp_path, grid_file)
    assert rc == 0
    degree = json.loads(rep.read_text())["refinement"]["degree"]
    line = capsys.readouterr().out
    assert f" eps=0.3 refine_degree={degree}\n" in line
    assert "eps_total" not in line
    rc, out, _ = factored(tmp_path, grid_file, "--no-refine")
    assert rc == 0
    line = capsys.readouterr().out
    assert f"eps_total={load_operator(out)[0].chain.eps_total:.6g}\n" in line


@pytest.mark.parametrize("eps", ["nan", "inf"])
@pytest.mark.parametrize("command", ["factor", "check"])
def test_non_finite_eps_exit_2(tmp_path, grid_file, command, eps, capsys):
    rc, out, _ = factored(tmp_path, grid_file)
    assert rc == 0
    if command == "factor":
        args = ["factor", str(grid_file), "--out", str(tmp_path / "x.fcop")]
    else:
        args = ["check", str(grid_file), str(out)]
    assert main(args + ["--eps", eps]) == 2
    assert "eps must be positive and finite" in capsys.readouterr().err


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
    assert "seed" not in report and report["config"]["seed"] == 7


def test_library_and_cli_record_the_same_eps_for_the_same_samples(tmp_path):
    # prepare refines eps / REFINE_SHARE tighter, so prepare(.., 0.2) and
    # factor --eps 0.025 store one operator; both sidecars record the eps
    # that operator is certified to
    mfile, op, sfile = tmp_path / "m.mtx", tmp_path / "op.fcop", tmp_path / "cli.bin"
    assert main(["gen", "--kind", "grid2d", "--size", "8", "--out", str(mfile)]) == 0
    assert main(["factor", str(mfile), "--eps", str(0.2 / REFINE_SHARE),
                 "--out", str(op)]) == 0
    assert main(["sample", str(op), "--count", "3", "--seed", "5", "--format", "bin",
                 "--out", str(sfile)]) == 0
    lib = tmp_path / "lib.bin"
    write_batch_bin(sample(prepare(make_field(grid2d(8)), 0.2), 3, seed=5), lib)
    assert lib.read_bytes() == sfile.read_bytes()
    side = json.loads((tmp_path / "cli.bin.json").read_text())
    assert json.loads((tmp_path / "lib.bin.json").read_text()) == side
    assert side["eps"] == 0.2 / REFINE_SHARE


def test_an_unrefined_chain_records_the_eps_it_certifies(tmp_path):
    # C C^T of a direct chain is certified to 2 eps_total, which an exact
    # chain spends in full: the sidecar reads the requested eps
    mfile, op, sfile = tmp_path / "m.mtx", tmp_path / "op.fcop", tmp_path / "s.bin"
    assert main(["gen", "--kind", "grid2d", "--size", "8", "--out", str(mfile)]) == 0
    assert main(["factor", str(mfile), "--no-refine", "--eps", "0.4", "--out", str(op)]) == 0
    assert main(["sample", str(op), "--count", "2", "--format", "bin",
                 "--out", str(sfile)]) == 0
    side = json.loads((tmp_path / "s.bin.json").read_text())
    assert side["eps"] == pytest.approx(0.4, abs=1e-12)


def test_sample_one_is_the_first_row_of_a_longer_batch(tmp_path, grid_file):
    # 400 samples of 16 normals span one colouring block; sample j's noise
    # depends on the seed and j alone
    rc, out, _ = factored(tmp_path, grid_file)
    assert rc == 0
    rows = {}
    for count in ("1", "400"):
        sfile = tmp_path / f"s{count}.bin"
        assert main(["sample", str(out), "--count", count, "--seed", "5",
                     "--format", "bin", "--out", str(sfile)]) == 0
        rows[count] = np.fromfile(sfile, dtype="<f8").reshape(-1, 16)
    assert rows["400"].shape == (400, 16)
    assert rows["1"].tobytes() == rows["400"][:1].tobytes()


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


def sample_with_schema(tmp_path, grid_file, schema):
    """Exit code of sample on a fresh container whose header claims schema."""
    rc, out, _ = factored(tmp_path, grid_file)
    assert rc == 0
    data = out.read_bytes()
    (size,) = struct.unpack_from("<Q", data, len(MAGIC))
    start = len(MAGIC) + 8
    header = json.dumps({**json.loads(data[start:start + size]),
                         "schema": schema}).encode("utf-8")
    old = tmp_path / "old.fcop"
    old.write_bytes(MAGIC + struct.pack("<Q", len(header)) + header + data[start + size:])
    return main(["sample", str(old), "--count", "1", "--out", str(tmp_path / "s.csv")])


@pytest.mark.parametrize("schema", range(4, 13))
def test_sample_older_schema_container_exit_2(tmp_path, grid_file, capsys, schema):
    # no older schema has a reader; 10 stored what schema 11 derives, 11
    # holds operators normalized by another kappa, and 12 reads a direct
    # chain's level polynomials on another interval
    assert sample_with_schema(tmp_path, grid_file, schema) == 2
    assert f"unsupported schema {schema}\n" in capsys.readouterr().err


def test_sample_container_smaller_than_its_n_exit_2(tmp_path, capsys):
    bad = tmp_path / "big.fcop"
    bad.write_bytes(empty_level_container(10**7, d=1))
    rc = main(["sample", str(bad), "--count", "1",
               "--out", str(tmp_path / "s.csv")])
    assert rc == 2
    assert "too large" in capsys.readouterr().err


def test_sample_beyond_colouring_block_exit_2(tmp_path, capsys):
    # a d = 0 container stores no matrix, so only its n is large: refused
    # before the potential, the mean or any noise is allocated
    bad = tmp_path / "huge.fcop"
    bad.write_bytes(empty_level_container(10**9, d=0))
    rc = main(["sample", str(bad), "--count", "1",
               "--out", str(tmp_path / "s.csv")])
    assert rc == 2
    assert "colouring block" in capsys.readouterr().err


def test_sample_beyond_output_budget_exit_2(tmp_path, grid_file, capsys):
    rc, op, _ = factored(tmp_path, grid_file)
    assert rc == 0
    out = tmp_path / "s.bin"
    rc = main(["sample", str(op), "--count", "100000000",
               "--format", "bin", "--out", str(out)])
    assert rc == 2
    assert "output budget" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.fixture
def no_build(monkeypatch):
    """Record every matrix build; the test asserts there was none."""
    built = []
    monkeypatch.setattr(SparseSymMatrix, "from_entries",
                        classmethod(lambda cls, n, *entries: built.append(n)))
    return built


@pytest.mark.parametrize("command", ["factor", "check"])
def test_fewer_entries_than_rows_refused_before_build(tmp_path, command, no_build, capsys):
    # a strictly dominant matrix stores all of its diagonal: 5 rows need 5 entries
    mfile = tmp_path / "m.mtx"
    mfile.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                     "5 5 3\n1 1 2.0\n2 2 2.0\n3 3 2.0\n")
    args = (["factor", str(mfile), "--out", str(tmp_path / "op.fcop")]
            if command == "factor" else ["check", str(mfile), str(tmp_path / "op.fcop")])
    assert main(args) == 2
    assert "lists 3 entries" in capsys.readouterr().err
    assert no_build == []


def test_check_refuses_dense_limit_before_build(tmp_path, no_build, capsys):
    n = DENSE_CHECK_LIMIT + 1
    mfile = tmp_path / "m.mtx"
    mfile.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                     f"{n} {n} {n}\n" + "".join(f"{i} {i} 1.0\n" for i in range(1, n + 1)))
    assert main(["check", str(mfile), str(tmp_path / "op.fcop")]) == 2
    assert "dense check limit" in capsys.readouterr().err
    assert no_build == []


@pytest.mark.parametrize("meta", [
    {"lifted": True, "n_original": [8]},
    {"lifted": [], "n_original": 8},
    {"lifted": True, "n_original": 5},
], ids=["n_original_list", "lifted_not_bool", "n_original_not_half"])
@pytest.mark.parametrize("command", ["sample", "check"])
def test_bad_container_meta_exit_2(tmp_path, grid_file, meta, command, capsys):
    # the operator is the 16-node grid's, so a lifted record needs n_original = 8
    _, out, _ = factored(tmp_path, grid_file)
    op, _ = load_operator(out)
    save_operator(out, op, meta=meta)
    args = (["sample", str(out), "--out", str(tmp_path / "s.csv")]
            if command == "sample" else ["check", str(grid_file), str(out)])
    assert main(args) == 2
    assert "container meta" in capsys.readouterr().err


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


def test_environment_is_ignored(tmp_path, grid_file, monkeypatch):
    plain = tmp_path / "plain.fcop"
    assert main(["factor", str(grid_file), "--out", str(plain)]) == 0
    monkeypatch.setenv("FACTORCHAIN_EPS", "0.9")
    monkeypatch.setenv("FACTORCHAIN_SEED", "9")
    monkeypatch.setenv("FACTORCHAIN_FORMAT", "bin")
    out, rep = tmp_path / "op.fcop", tmp_path / "r.json"
    assert main(["factor", str(grid_file), "--out", str(out),
                 "--report", str(rep)]) == 0
    report = json.loads(rep.read_text())
    config = report["config"]
    assert (config["eps"], config["seed"]) == (0.5, 0)
    assert "seed" not in report
    assert out.read_bytes() == plain.read_bytes()
    sfile = tmp_path / "s.out"
    assert main(["sample", str(out), "--count", "2", "--out", str(sfile)]) == 0
    assert sfile.read_text().startswith("x0,x1,")
    assert not (tmp_path / "s.out.json").exists()


def test_factor_help_shows_defaults(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["factor", "--help"])
    assert exc.value.code == 0
    assert "default: 0.5" in capsys.readouterr().out


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


@pytest.mark.parametrize("gremban", [False, True])
def test_factor_writes_the_library_operator(tmp_path, gremban):
    # one refined path: factor --eps e stores what prepare refines to e
    mfile, out, rep = tmp_path / "m.mtx", tmp_path / "op.fcop", tmp_path / "r.json"
    write_matrix(mfile, sdd_mixed(16, seed=1) if gremban else grid2d(16, slack=1e-2))
    eps = 0.25
    assert main(["factor", str(mfile), "--eps", str(eps), "--out", str(out),
                 "--report", str(rep)] + (["--gremban"] if gremban else [])) == 0
    m, _ = read_matrix(mfile)
    op = prepare(make_field(m), eps * REFINE_SHARE).operator
    assert out.read_bytes() == operator_bytes(op, {"lifted": gremban, "n_original": m.n})
    # the report describes the stored chain and its chosen degree: both
    # inputs store a polynomial in the matrix alone, with no level
    chain = json.loads(rep.read_text())["chain"]
    assert chain["d"] == op.chain.d == 0
    assert chain["poly_degrees"] == []
    assert chain["lambdas"] == list(op.chain.lambdas)
    assert chain["chosen_degree"] == 0
    assert chain["flops_per_sample"] == flops_per_sample(op)
    assert chain["dense_terminal_level"] is None


def _python(code: str) -> list[str]:
    """Run code in a fresh interpreter on this package; its stdout lines."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    return proc.stdout.splitlines()


def test_sample_skips_the_resistance_solver(tmp_path, grid_file):
    # only sampled sparsification runs CG: neither importing the package nor
    # sampling a stored operator loads scipy.sparse.linalg
    rc, out, _ = factored(tmp_path, grid_file)
    assert rc == 0
    code = ("import sys; import factorchain; "
            "loaded = 'scipy.sparse.linalg' in sys.modules; "
            "from factorchain.cli import main; "
            f"rc = main(['sample', {str(out)!r}, '--count', '2', "
            f"'--out', {str(tmp_path / 's.csv')!r}]); "
            "print(rc, loaded, 'scipy.sparse.linalg' in sys.modules)")
    assert _python(code)[-1] == "0 False False"


# printed after the work that follows `before = set(sys.modules)`: the
# modules it loaded, whether scipy.linalg or scipy.sparse is loaded, and
# every scipy module
_LOADED = """
print(sorted(set(sys.modules) - before))
print('scipy.linalg' in sys.modules, 'scipy.sparse' in sys.modules)
print(sorted(k for k in sys.modules if k.startswith('scipy')))
"""

# what _LOADED prints when the package's import loaded scipy's CSR kernels
# alone, and the work loaded nothing
_NOTHING_LOADED = ["[]", "False False", "['scipy.sparse._sparsetools']"]


def test_import_and_row_sum_set_ups_skip_scipy_linalg(tmp_path):
    # only Lanczos (a t >= 1 refinement) and the dense oracle use
    # scipy.linalg, and only to_scipy, the edge factor and sampled squaring
    # use scipy.sparse.  Importing the package loads scipy's CSR kernels by
    # file, and numpy.fft and numpy.random, which numpy loads on first use:
    # set-ups, samples and containers then import nothing, in the library
    # and in the CLI's factor and sample
    code = """
import sys
import factorchain as fc
grid, rr, lam = fc.grid2d(8), fc.random_regular(64, 3), fc.sdd_mixed(16)
before = set(sys.modules)
assert fc.prepare(fc.make_field(grid), 0.2).operator.chain.d == 0
fc.build_chain(fc.normalize(rr, fc.validate_sddm(rr)), -0.5, 0.3)
prep = fc.prepare(fc.make_field(lam), 0.2)
fc.sample(prep, 3, 1)
fc.operator_from_bytes(fc.operator_bytes(prep.operator))
""" + _LOADED
    assert _python(code)[-3:] == _NOTHING_LOADED
    mtx, op = tmp_path / "m.mtx", tmp_path / "op.fcop"
    assert main(["gen", "--kind", "sdd_mixed", "--size", "16", "--out", str(mtx)]) == 0
    code = f"""
import sys
from factorchain.cli import _build_parser, main
_build_parser()  # argparse's gettext loads locale on the first parser built
before = set(sys.modules)
assert main(['factor', {str(mtx)!r}, '--gremban', '--eps', '0.2', '--out', {str(op)!r}]) == 0
assert main(['sample', {str(op)!r}, '--count', '3', '--format', 'bin',
             '--out', {str(tmp_path / 's.bin')!r}]) == 0
""" + _LOADED
    assert _python(code)[-3:] == _NOTHING_LOADED


def test_sample_bytes_do_not_depend_on_importing_scipy_sparse_first(tmp_path, grid_file):
    # with scipy.sparse imported first, the package reuses its kernel
    # module; the samples are the same bytes either way
    rc, out, _ = factored(tmp_path, grid_file)
    assert rc == 0
    written = []
    for first in ("", "import scipy.sparse; "):
        path = tmp_path / f"s{len(written)}.bin"
        code = (f"import sys; {first}from factorchain.cli import main; "
                "import factorchain.sparse as s; "
                "print(s._sparsetools is sys.modules['scipy.sparse._sparsetools'], "
                "'scipy.sparse' in sys.modules); "
                f"main(['sample', {str(out)!r}, '--count', '7', '--format', 'bin', "
                f"'--out', {str(path)!r}])")
        assert _python(code)[0] == f"True {bool(first)}"
        written.append(path.read_bytes())
    assert written[0] == written[1]


def test_threads_flag_is_gone(tmp_path, grid_file):
    # --exact only selected the default once every level squared exactly
    for flag in (["--threads", "2"], ["--exact"]):
        with pytest.raises(SystemExit) as exc:
            main(["factor", str(grid_file), *flag, "--out", str(tmp_path / "op.fcop")])
        assert exc.value.code == 2
