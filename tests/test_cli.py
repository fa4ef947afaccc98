import copy
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import ghz
from eigenmps import cli, tensor, vqa
from eigenmps.errors import CapacityError, NumericalError, ValidationError
from eigenmps.simulator import zero_state
from eigenmps.tensor import MpsState, mps_to_json, statevector_to_mps

TFI = {"type": "hamiltonian", "preset": "tfi", "params": {"coupling": 1.0, "field": 1.0}}
PLANTED = {"type": "planted", "planted": {"k": 1, "seed": 5, "phases_seed": 6}}


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def identity_oracle_file(tmp_path, n):
    dim = 2**n
    return write_json(
        tmp_path / "identity.json",
        {"n": n, "re": np.eye(dim).tolist(), "im": np.zeros((dim, dim)).tolist()},
    )


def base_config(tmp_path, n=3, **overrides):
    config = {
        "n": n,
        "k_max": 1,
        "oracle": {"type": "dense", "path": identity_oracle_file(tmp_path, n)},
        "optimizer": {"method": None, "max_iters": 50, "restarts": 1},
        "shots": 0,
        "cert_tol": 1e-6,
        "seed": 7,
        "output_path": str(tmp_path / "record.json"),
    }
    config.update(overrides)
    return config


def test_config_round_trip(tmp_path):
    # every key config_to_dict writes, for every oracle type, is one config_from_dict takes back
    dimacs = {"type": "dimacs", "path": "inst.cnf", "t": 0.3}
    for oracle in (dimacs, base_config(tmp_path)["oracle"], {**TFI, "t": 0.5}, PLANTED):
        for shots in (0, 64):
            config = cli.config_from_dict(base_config(tmp_path, oracle=oracle, shots=shots))
            echoed = json.loads(json.dumps(cli.config_to_dict(config)))
            assert cli.config_from_dict(echoed) == config, (oracle["type"], shots)


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda c: c.pop("n"), "missing"),
        (lambda c: c.update(k_max=5), "k_max"),
        (lambda c: c.update(oracle={"type": "mystery"}), "oracle type"),
        (lambda c: c.update(oracle={"type": "dimacs"}), "path"),
        (lambda c: c.update(oracle={"type": "hamiltonian", "preset": "hubbard"}), "preset"),
        (lambda c: c.update(oracle={"type": "planted", "planted": {"k": 1}}), "seed"),
        (lambda c: c.update(shots=-1), "shots"),
        (lambda c: c["optimizer"].update(method=["spsa"]), "method"),
        pytest.param(lambda c: c["optimizer"].update(method="nelder-mead"), "method",
                     id="nelder-mead"),  # named, so the row above keeps its id
        (lambda c: c["optimizer"].update(tol_loss=-1e-9), "tol_loss"),
        pytest.param(lambda c: c.update(oracle={"type": "planted"}), "requires a 'planted' object",
                     id="planted-without-object"),
    ],
)
def test_config_validation_errors(tmp_path, mutate, fragment):
    raw = base_config(tmp_path)
    mutate(raw)
    with pytest.raises(ValidationError, match=fragment):
        cli.config_from_dict(raw)


def test_run_identity_oracle(tmp_path):
    config = cli.config_from_dict(base_config(tmp_path))
    record = cli.main_run(config)
    assert record["best_k"] == 0
    assert record["per_k"][0]["loss"] < 1e-12
    assert record["per_k"][0]["certificate"] == pytest.approx(1.0)
    assert record["per_k"][0]["certificate"] <= 1.0  # a probability, whatever the rounding
    assert record["terminated_early"]
    on_disk = json.loads((tmp_path / "record.json").read_text())
    assert on_disk["best_k"] == 0
    assert on_disk["mps"]["n"] == 3
    # the echoed config is itself a valid config
    assert cli.config_from_dict(on_disk["config"]).n == 3


def test_run_satisfiable_dimacs(tmp_path):
    dimacs = tmp_path / "inst.cnf"
    dimacs.write_text("c satisfiable\np cnf 4 2\n1 2 0\n-3 4 0\n")
    raw = base_config(
        tmp_path,
        n=4,
        oracle={"type": "dimacs", "path": str(dimacs), "t": 0.3},
        optimizer={"method": None, "max_iters": 400, "restarts": 3, "tol_loss": 1e-14},
    )
    record = cli.main_run(cli.config_from_dict(raw))
    best = max(record["per_k"], key=lambda e: e["certificate"])
    assert best["certificate"] >= 1 - 1e-6
    # best state is a computational basis state: rank 1 and a single dominant amplitude
    assert all(c["rank"] == 1 for c in record["resources"]["ebit_audit"])


def test_run_planted_certificates_monotone(tmp_path):
    raw = base_config(
        tmp_path,
        n=4,
        k_max=1,
        oracle={"type": "planted", "planted": {"k": 1, "seed": 5, "phases_seed": 6}},
        optimizer={"method": "fd-gradient-descent", "max_iters": 60, "restarts": 2},
        cert_tol=1e-9,
    )
    record = cli.main_run(cli.config_from_dict(raw))
    certs = [entry["certificate"] for entry in record["per_k"]]
    assert all(b >= a for a, b in zip(certs, certs[1:]))
    assert all(0.0 <= c <= 1.0 for c in certs)


def test_run_tfi_preset(tmp_path):
    raw = base_config(
        tmp_path,
        n=3,
        k_max=1,
        oracle={"type": "hamiltonian", "preset": "tfi", "t": 0.5,
                "params": {"coupling": 1.0, "field": 0.7}},
        optimizer={"method": None, "max_iters": 150, "restarts": 2},
    )
    record = cli.main_run(cli.config_from_dict(raw))
    assert record["per_k"][0]["certificate"] <= 1.0 + 1e-12


def test_analyze_ghz_and_product(tmp_path):
    ghz_path = write_json(tmp_path / "ghz.json", mps_to_json(statevector_to_mps(ghz(4))))
    report = cli.main_analyze(ghz_path)
    assert all(c["rank"] == 2 for c in report["cuts"])
    assert all(abs(c["ebits"] - 1.0) < 1e-10 for c in report["cuts"])

    product_path = write_json(
        tmp_path / "prod.json", mps_to_json(statevector_to_mps(zero_state(3)))
    )
    report = cli.main_analyze(product_path)
    assert all(c["rank"] == 1 for c in report["cuts"])
    assert all(abs(c["ebits"]) < 1e-12 for c in report["cuts"])


def test_analyze_accepts_run_record(tmp_path):
    config = cli.config_from_dict(base_config(tmp_path))
    cli.main_run(config)
    report = cli.main_analyze(str(tmp_path / "record.json"))
    assert report["n"] == 3


def test_analyze_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"neither": true}')
    with pytest.raises(ValidationError):
        cli.main_analyze(str(bad))


def test_cli_exit_codes(tmp_path, monkeypatch, capsys):
    # success
    config_path = write_json(tmp_path / "config.json", base_config(tmp_path))
    assert cli.main(["run", config_path]) == 0
    # validation error: malformed config json
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert cli.main(["run", str(broken)]) == 2
    # i/o error: missing file
    assert cli.main(["run", str(tmp_path / "nope.json")]) == 3
    # numerical failure class
    monkeypatch.setattr(cli, "main_run", lambda cfg: (_ for _ in ()).throw(NumericalError("boom")))
    assert cli.main(["run", config_path]) == 4
    capsys.readouterr()


def test_a_non_finite_objective_exits_4_with_a_short_message(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(vqa, "loss_and_gradient", lambda circuit, theta, q: (math.nan, theta, 0.0))
    config_path = write_json(tmp_path / "config.json", base_config(tmp_path))
    assert cli.main(["run", config_path]) == 4
    err = capsys.readouterr().err
    assert err.startswith("numerical error: objective returned nan at theta=[")
    assert len(err) <= 200


def test_dense_file_on_other_qubits_than_the_config_exits_2(tmp_path, capsys):
    raw = base_config(tmp_path, n=2)
    raw["oracle"]["path"] = identity_oracle_file(tmp_path, 1)
    code, err = run_exit_code(tmp_path, capsys, raw)
    assert code == 2 and "dense oracle is on 1 qubits, config says 2" in err


def test_cli_overrides(tmp_path):
    raw = base_config(tmp_path)
    config_path = write_json(tmp_path / "config.json", raw)
    out = tmp_path / "other.json"
    assert cli.main(["run", config_path, "--seed", "99", "--output", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["config"]["seed"] == 99


def test_float_serialization_17_digits():
    assert cli.format_float(0.1) == "0.10000000000000001"
    text = cli.dumps_json({"x": [1e-6, 1.0, 2]})
    parsed = json.loads(text)
    assert parsed["x"][0] == 1e-6
    with pytest.raises(ValidationError):
        cli.format_float(float("inf"))


def test_reproducible_records(tmp_path):
    # identical config files give identical records up to timing fields
    config_path = write_json(tmp_path / "config.json", base_config(tmp_path))
    records = []
    for _ in range(2):
        assert cli.main(["run", config_path]) == 0
        rec = json.loads((tmp_path / "record.json").read_text())
        rec.pop("timestamp")
        for entry in rec["per_k"]:
            entry.pop("wall_time_s")
        records.append(cli.dumps_json(rec))
    assert records[0] == records[1]


def run_exit_code(tmp_path, capsys, raw):
    """Exit code of `eigenmps run` on the config, after checking stderr has no traceback."""
    code = cli.main(["run", write_json(tmp_path / "config.json", raw)])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return code, err


# every numeric config field, with the oracle spec that reads it (None: the base's)
NUMERIC_FIELDS = [
    (None, ("n",)),
    (None, ("k_max",)),
    (None, ("seed",)),
    (None, ("shots",)),
    (None, ("cert_tol",)),
    (None, ("oracle", "t")),
    (None, ("optimizer", "max_iters")),
    (None, ("optimizer", "tol_loss")),
    (None, ("oracle", "params", "coupling")),  # checked even where the oracle ignores it
    (None, ("optimizer", "restarts")),
    (TFI, ("oracle", "params", "coupling")),
    (TFI, ("oracle", "params", "field")),
    (PLANTED, ("oracle", "planted", "k")),
    (PLANTED, ("oracle", "planted", "seed")),
    (PLANTED, ("oracle", "planted", "phases_seed")),
    (TFI, ("oracle", "t")),  # the base's dense oracle reads no t; the TFI evolution does
]
NON_FINITE = [math.nan, math.inf, -math.inf]


def with_field(raw, oracle, path, value):
    """raw with the given oracle spec (if any) and the field at path set to value."""
    if oracle is not None:
        raw["oracle"] = copy.deepcopy(oracle)
    target = raw
    for key in path[:-1]:
        target = target.setdefault(key, {})
    target[path[-1]] = value
    return raw


# JSON booleans and numeric strings are not numbers
@pytest.mark.parametrize("bad", ["ten", [1], True, "1", "0.5"])
@pytest.mark.parametrize("oracle, path", NUMERIC_FIELDS)
def test_non_numeric_config_field_exits_2(tmp_path, capsys, oracle, path, bad):
    raw = with_field(base_config(tmp_path), oracle, path, bad)
    code, err = run_exit_code(tmp_path, capsys, raw)
    assert code == 2
    assert path[-1] in err


INTEGER_FIELDS = [(o, p) for o, p in NUMERIC_FIELDS if cli.FIELD_TYPES[p[-1]] is int]


@pytest.mark.parametrize("bad", [3.9, 1.0])  # once read as 3 and 1
@pytest.mark.parametrize("oracle, path", INTEGER_FIELDS)
def test_fractional_number_in_integer_config_field_exits_2(tmp_path, capsys, oracle, path, bad):
    raw = with_field(base_config(tmp_path), oracle, path, bad)
    code, err = run_exit_code(tmp_path, capsys, raw)
    assert code == 2
    assert path[-1] in err and "integer" in err


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("oracle, path", NUMERIC_FIELDS)
def test_non_finite_config_field_exits_2_before_the_oracle_is_built(
    tmp_path, capsys, monkeypatch, oracle, path, bad
):
    # json.dumps writes NaN and Infinity, which Python's JSON reader accepts
    monkeypatch.setattr(cli, "build_oracle", lambda config: pytest.fail("oracle was built"))
    raw = with_field(base_config(tmp_path), oracle, path, bad)
    code, err = run_exit_code(tmp_path, capsys, raw)
    assert code == 2
    assert path[-1] in err


def test_nan_in_dense_matrix_file_exits_2(tmp_path, capsys):
    matrix = np.eye(8).tolist()
    matrix[3][3] = math.nan
    nan_file = {"n": 3, "re": matrix, "im": np.zeros((8, 8)).tolist()}
    path = write_json(tmp_path / "nan.json", nan_file)
    raw = base_config(tmp_path, oracle={"type": "dense", "path": path})
    code, err = run_exit_code(tmp_path, capsys, raw)
    assert code == 2
    assert "not unitary" in err


@pytest.mark.parametrize(
    "oracle, path, value",
    [
        (None, ("warm_start",), "false"),
        (None, ("warm_start",), 0),
        (None, ("warm_start",), None),
        (None, ("warm_start",), True),
        (None, ("optimizer", "fd_step"), 1e-4),
        (None, ("optimizer", "max_iter"), 10),  # a typo of max_iters once ran 500 iterations
        (TFI, ("oracle", "params", "J"), 0.5),
    ],
    ids=["false", "0", "None", "True", "fd_step", "max_iter", "params.J"],
)
def test_warm_start_must_be_a_json_boolean(tmp_path, capsys, monkeypatch, oracle, path, value):
    """Every key outside the schema exits 2 and is named, warm_start and fd_step included."""
    monkeypatch.setattr(cli, "build_oracle", lambda config: pytest.fail("oracle was built"))
    raw = with_field(base_config(tmp_path), oracle, path, value)
    code, err = run_exit_code(tmp_path, capsys, raw)
    assert code == 2
    assert "unknown config key" in err and ".".join(path) in err


@pytest.mark.parametrize("cert_tol", [-1, -1e-9, 1.0, 2.5])
def test_cert_tol_outside_unit_interval_exits_2(tmp_path, capsys, cert_tol):
    code, err = run_exit_code(tmp_path, capsys, base_config(tmp_path, cert_tol=cert_tol))
    assert code == 2
    assert "cert_tol" in err


@pytest.mark.parametrize("kind", ["dimacs", "tfi", "planted", "dense"])
def test_capacity_checked_before_any_allocation(tmp_path, capsys, kind):
    # n=64 is far past every cap: the oracle build would ask for 2^64 entries
    cnf = tmp_path / "wide.cnf"
    cnf.write_text("p cnf 64 1\n1 -64 0\n")
    oracle = {
        "dimacs": {"type": "dimacs", "path": str(cnf)},
        "tfi": TFI,
        "planted": PLANTED,
        "dense": {"type": "dense", "path": identity_oracle_file(tmp_path, 1)},
    }[kind]
    raw = base_config(tmp_path, oracle=oracle)
    raw["n"] = 64
    code, err = run_exit_code(tmp_path, capsys, raw)
    assert code == 2
    assert "cap" in err


@pytest.mark.parametrize("oracle", [TFI, PLANTED, "dense"])
def test_dense_oracles_capped_at_config_time(tmp_path, oracle):
    # config_from_dict builds nothing, so a dense-only size is safe to pass here
    raw = base_config(tmp_path)
    raw["n"] = 13
    if oracle != "dense":
        raw["oracle"] = oracle
    with pytest.raises(CapacityError):
        cli.config_from_dict(raw)
    raw["oracle"] = {"type": "dimacs", "path": "wide.cnf"}
    assert cli.config_from_dict(raw).n == 13


def test_analyze_zero_mps_exits_2(tmp_path, capsys):
    zero = MpsState((np.zeros((1, 2, 1)),) * 3)
    path = write_json(tmp_path / "zero.json", mps_to_json(zero))
    assert cli.main(["analyze", path]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "zero" in err


@pytest.mark.parametrize(
    "overrides, argv, fragment",
    [
        ({"seed": -1}, [], "seed"),
        ({}, ["--seed", "-1"], "seed"),
        ({}, ["--shots", "-3"], "shots"),
        ({"oracle": {**PLANTED, "planted": {"k": 1, "seed": -1, "phases_seed": 6}}}, [],
         "oracle.planted.seed"),  # numpy rejects a negative seed once the oracle is built
        # only SPSA runs on shots: an "lbfgs" config with shots must not run SPSA in silence
        ({"optimizer": {"method": "lbfgs"}, "shots": 64}, [], "got 'lbfgs'"),
        ({"optimizer": {"method": "lbfgs"}}, ["--shots", "64"], "got 'lbfgs'"),
    ],
)
def test_negative_seed_or_shots_exits_2_before_the_oracle_is_built(
    tmp_path, capsys, monkeypatch, overrides, argv, fragment
):
    monkeypatch.setattr(cli, "build_oracle", lambda config: pytest.fail("oracle was built"))
    config_path = write_json(tmp_path / "config.json", base_config(tmp_path, **overrides))
    assert cli.main(["run", config_path, *argv]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert fragment in err


@pytest.mark.parametrize("flag", ["--seed", "--shots"])
@pytest.mark.parametrize("value", ["x", "x" * 100_000, "1" * 5000], ids=["word", "long", "digits"])
def test_a_rejected_run_flag_is_quoted_short(tmp_path, capsys, flag, value):
    # argparse echoed the value whole: 100 160 characters for 100 000 (5000 digits: past int())
    config_path = write_json(tmp_path / "config.json", base_config(tmp_path))
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["run", config_path, flag, value])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "invalid int value" in err and "Traceback" not in err
    assert len(err) <= 250


@pytest.mark.parametrize("overrides, argv", [({"shots": 4611686018427387904}, []),
                                             ({"shots": 2**20 + 1}, []),
                                             ({"shots": 10**4000}, []),
                                             ({}, ["--shots", str(10**10)]),
                                             ({}, ["--shots", str(10**4000)])])
def test_shots_above_the_cap_exit_2_before_anything_is_allocated(
    tmp_path, capsys, monkeypatch, overrides, argv
):
    # 2^62 shots made Generator.choice raise a ValueError; 10^10 would draw 80 GB of outcomes
    monkeypatch.setattr(cli, "build_oracle", lambda config: pytest.fail("oracle was built"))
    monkeypatch.setattr(cli, "run_sweep", lambda *a, **k: pytest.fail("sweep ran"))
    config_path = write_json(tmp_path / "config.json", base_config(tmp_path, **overrides))
    assert cli.main(["run", config_path, *argv]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "shots" in err and "cap" in err
    assert len(err) <= len(config_path) + 120  # a 4001-digit count is not echoed
    with pytest.raises(CapacityError):
        cli.config_from_dict(base_config(tmp_path, shots=cli.MAX_SHOTS + 1))
    assert cli.config_from_dict(base_config(tmp_path, shots=cli.MAX_SHOTS)).shots == cli.MAX_SHOTS


def test_budget_above_the_block_width_cap_exits_2_before_the_oracle_is_built(
    tmp_path, capsys, monkeypatch
):
    # k_max=8 needs width-9 blocks; found in the sweep, it would come after budgets 0..7
    monkeypatch.setattr(cli, "build_oracle", lambda config: pytest.fail("oracle was built"))
    raw = base_config(tmp_path, k_max=8, oracle={"type": "dimacs", "path": "wide.cnf"})
    raw["n"] = 18
    code, err = run_exit_code(tmp_path, capsys, raw)
    assert code == 2
    assert "cap" in err
    assert not Path(raw["output_path"]).exists()


def test_output_path_in_a_missing_directory_exits_3_before_the_oracle_is_built(
    tmp_path, capsys, monkeypatch
):
    # found at the write, it would come after the whole sweep, with no record
    monkeypatch.setattr(cli, "build_oracle", lambda config: pytest.fail("oracle was built"))
    missing = tmp_path / "missing" / "record.json"
    raw = base_config(tmp_path, n=4, oracle=PLANTED, output_path=str(missing))
    code, err = run_exit_code(tmp_path, capsys, raw)
    assert code == 3
    assert str(missing) in err
    assert not missing.parent.exists()


def test_cli_overrides_pass_config_validation(tmp_path, capsys):
    config_path = write_json(tmp_path / "config.json", base_config(tmp_path, shots=64))
    out = tmp_path / "shots.json"
    assert cli.main(["run", config_path, "--shots", "0", "--output", str(out)]) == 0
    capsys.readouterr()
    assert json.loads(out.read_text())["config"]["shots"] == 0


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda raw: raw["oracle"].update(path=3), "oracle.path"),
        (lambda raw: raw["oracle"].update(type="dimacs", path=["x.cnf"]), "oracle.path"),
        (lambda raw: raw.update(output_path=None), "output_path"),
        (lambda raw: raw.update(output_path=7), "output_path"),
    ],
)
def test_non_string_paths_exit_2(tmp_path, capsys, monkeypatch, mutate, fragment):
    monkeypatch.chdir(tmp_path)
    raw = base_config(tmp_path)
    mutate(raw)
    code, err = run_exit_code(tmp_path, capsys, raw)
    assert code == 2
    assert fragment in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "identity.json"]


def one_qubit_mps_file(tmp_path, amps):
    return write_json(tmp_path / "one.json", mps_to_json(MpsState((np.reshape(amps, (1, 2, 1)),))))


def test_analyze_one_qubit_mps(tmp_path, capsys):
    path = one_qubit_mps_file(tmp_path, [0.6, 0.8])
    assert cli.main(["analyze", path]) == 0
    assert "Traceback" not in capsys.readouterr().err
    report = cli.main_analyze(path, out=io.StringIO())
    assert report["cuts"] == []
    assert report["truncation"] == [{"r": 1, "eps": 0.0, "err1": 0.0, "err2": 0.0}]


@pytest.mark.parametrize("amps", [[math.nan, 0.0], [1.0, math.inf]])
def test_analyze_non_finite_mps_exits_2(tmp_path, capsys, amps):
    path = one_qubit_mps_file(tmp_path, amps)
    assert cli.main(["analyze", path]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "non-finite" in err
    assert err.count(path) == 1


def test_analyze_one_qubit_zero_mps_exits_2(tmp_path, capsys):
    assert cli.main(["analyze", one_qubit_mps_file(tmp_path, [0.0, 0.0])]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "zero" in err


@pytest.mark.parametrize(
    "mutate",
    [
        lambda obj: obj.update(tensors=5),
        lambda obj: obj.update(n="two"),
        lambda obj: obj.update(n="2"),
        lambda obj: obj.update(n=2.0),
        lambda obj: obj["tensors"][-1].update(shape="12"),
        lambda obj: obj["tensors"][-1].update(shape=[-1, 2, -1]),
        lambda obj: obj["tensors"][-1].update(shape=[1.5, 2, 1]),  # once read as (1, 2, 1)
        lambda obj: obj["tensors"][-1].update(shape=[True, 2, 1]),
        lambda obj: obj.update(n=3),
        lambda obj: obj["tensors"][-1].update(shape=[1, 2, 3]),
        # 2^32 * 2 * 2^31 wraps to 0 in int64, so an empty tensor once "filled" it
        lambda obj: obj["tensors"][-1].update(shape=[2**32, 2, 2**31], re=[], im=[]),
    ],
    ids=["tensors-int", "n-str", "n-numeric-str", "n-float", "shape-str", "shape-negative",
         "shape-float", "shape-bool", "count-mismatch", "shape-unfilled", "shape-overflow"],
)
def test_analyze_malformed_mps_exits_2(tmp_path, capsys, mutate):
    obj = mps_to_json(statevector_to_mps(zero_state(2)))
    mutate(obj)
    path = write_json(tmp_path / "bad.json", obj)
    assert cli.main(["analyze", path]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count(path) == 1  # named once, by the one file reader


def test_cli_module_run_as_a_script_exits_as_the_entrypoint(tmp_path):
    # python -m eigenmps.cli once imported the module, did nothing and exited 0
    obj = mps_to_json(statevector_to_mps(zero_state(2)))
    path = write_json(tmp_path / "bad.json", {**obj, "tensors": 5})
    paths = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run([sys.executable, "-m", "eigenmps.cli", "analyze", path],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr and done.stderr.count(path) == 1


def test_analyze_rejects_an_mps_above_the_qubit_cap(tmp_path, capsys):
    # 21 product sites: a few kB of file, 2^21 amplitudes once contracted
    site = {"shape": [1, 2, 1], "re": [1.0, 0.0], "im": [0.0, 0.0]}
    path = write_json(tmp_path / "wide.json", {"n": 21, "bond_dims": [1] * 20, "tensors": [site] * 21})
    assert cli.main(["analyze", path]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "cap" in err and err.count(path) == 1


@pytest.mark.parametrize("scale, code", [(5.0, 2), (1 + 1e-6, 2), (1 - 1e-6, 2), (1 + 1e-10, 0)])
def test_analyze_takes_only_a_normalized_mps(tmp_path, capsys, scale, code):
    # unnormalized, the cut's ebits came out negative and the rank-1 truncation error 0
    mps = statevector_to_mps(ghz(2))
    scaled = MpsState((mps.tensors[0] * scale, *mps.tensors[1:]))
    path = write_json(tmp_path / "scaled.json", mps_to_json(scaled))
    assert cli.main(["analyze", path]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert ("norm" in err) == (code == 2)
    assert err.count(path) == (code == 2)


@pytest.mark.parametrize(
    "kind, data",
    [
        ("config", b'{"n": 3, "k_max": 1, "output_path": "r\xff.json"}'),
        ("analyze", b'{"n": 1, "tensors": [], "note": "\xff"}'),
        ("dimacs", b"p cnf 3 1\n1 -2 \xff 0\n"),
        ("dense", '{"n": 1, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, é]]}'.encode("utf-8")),
        ("dense", b'{"n": 1, "re": [[1, 0], [0'),
        # json.loads raises a plain ValueError, not a JSONDecodeError, past 4300 digits
        ("config", b'{"n": ' + b"1" * 5000 + b', "k_max": 1}'),
        ("analyze", b'{"n": ' + b"1" * 5000 + b', "tensors": []}'),
        ("dense", b'{"n": ' + b"1" * 5000 + b', "re": [], "im": []}'),
    ],
    ids=["config-not-utf8", "analyze-not-utf8", "dimacs-0xff", "dense-e-acute", "dense-truncated",
         "config-long-int", "analyze-long-int", "dense-long-int"],
)
def test_undecodable_or_unparsable_input_file_exits_2(tmp_path, capsys, kind, data):
    bad = tmp_path / f"bad-{kind}"
    bad.write_bytes(data)
    if kind in ("dimacs", "dense"):
        config = base_config(tmp_path, oracle={"type": kind, "path": str(bad)})
        argv = ["run", write_json(tmp_path / "config.json", config)]
    else:
        argv = ["run" if kind == "config" else "analyze", str(bad)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count(str(bad)) == 1


@pytest.mark.parametrize(
    "kind, text, fragment",
    [
        ("dimacs", "p cnf 3 1\n1 x 0\n", "line 2: non-integer token 'x'"),
        ("dimacs", "p cnf 3 2\n1 -2 0\n", "header declares 2 clauses"),
        ("dense", '{"n": 2, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]}', "4x4"),
        ("dense", '{"n": "1", "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]}', "integer"),
        ("dense", '{"n": 1, "re": [[1, 0], [0, "x"]], "im": [[0, 0], [0, 0]]}', "malformed"),
        ("dense", '{"n": 20000, "re": [], "im": []}', "cap"),
        # past Python's 4300-digit limit: once "non-integer", with all 5000 digits echoed
        ("dimacs", "p cnf " + "1" * 5000 + " 1\n1 0\n", "line 1: a count too long for an integer"),
        ("dimacs", "p cnf 3 1\n" + "1" * 5000 + " 0\n", "line 2: token too long for an integer"),
    ],
    ids=["dimacs-token", "dimacs-count", "dense-shape", "dense-n-str", "dense-entry", "dense-n-cap",
         "dimacs-long-count", "dimacs-long-token"],
)
def test_format_error_inside_input_file_names_it(tmp_path, capsys, kind, text, fragment):
    bad = tmp_path / f"bad-{kind}"
    bad.write_text(text)
    raw = base_config(tmp_path, n=1 if kind == "dense" else 3, k_max=0,
                      oracle={"type": kind, "path": str(bad)})
    code, err = run_exit_code(tmp_path, capsys, raw)
    assert code == 2
    assert f"{bad}: " in err and fragment in err
    assert len(err) <= len(str(bad)) + 120  # the message quotes the input, never floods with it


HUGE, LONG = 10**4000, "x" * 100_000
NESTED = 1
for _ in range(7):  # a list nested 7 deep, 7 items per level (7^7 leaves in JSON)
    NESTED = [NESTED] * 7
# every config field a check quotes, with the oracle spec that reads it
QUOTED_FIELDS = [
    (None, ("n",)),
    (None, ("k_max",)),
    (None, ("seed",)),
    (None, ("shots",)),
    (None, ("cert_tol",)),
    (None, ("optimizer", "max_iters")),
    (None, ("optimizer", "restarts")),
    (None, ("optimizer", "method")),
    (None, ("oracle", "type")),
    (TFI, ("oracle", "preset")),
    (PLANTED, ("oracle", "planted", "k")),
    (PLANTED, ("oracle", "planted", "seed")),
    (PLANTED, ("oracle", "planted", "phases_seed")),
]
UNBOUNDED = ("seed", "max_iters", "restarts", "phases_seed")  # where 10^4000 is a valid value


def _mps_of_zero(n=2, **site):
    """The exported MPS of |00>, with its n and entries of its first site replaced."""
    obj = mps_to_json(statevector_to_mps(zero_state(2)))
    obj["tensors"][0].update(site)
    return {**obj, "n": n}


# each input file the CLI reads, as a function of the one value placed in it
QUOTED_FILES = {
    "dimacs-literal": ("dimacs", lambda v: f"p cnf 3 1\n{v} 0\n"),
    "dimacs-clause-count": ("dimacs", lambda v: f"p cnf 3 {v}\n1 0\n"),
    "dimacs-variable-count": ("dimacs", lambda v: f"p cnf {v} 1\n1 0\n"),
    "dense-n": ("dense", lambda v: {"n": v, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]}),
    "dense-entry": ("dense", lambda v: {"n": 1, "re": [[1, 0], [0, v]], "im": [[0, 0], [0, 0]]}),
    "mps-n": ("analyze", lambda v: _mps_of_zero(n=v)),
    "mps-shape": ("analyze", lambda v: _mps_of_zero(shape=[v, 2, 1])),
    "mps-entry": ("analyze", lambda v: _mps_of_zero(re=[v, 0.0])),
}


def _quoting_cases():
    for value, tag in [(HUGE, "huge"), (-HUGE, "negative-huge"), (LONG, "long")]:
        for oracle, path in QUOTED_FIELDS:
            if value != HUGE or path[-1] not in UNBOUNDED:
                yield pytest.param("config", (oracle, path), value, id=f"{'.'.join(path)}-{tag}")
        yield pytest.param("config", (None, None), value, id=f"config-key-{tag}")
        for name, (kind, make) in QUOTED_FILES.items():
            yield pytest.param(kind, make, value, id=f"{name}-{tag}")
    # one quoting level: a nested list was quoted 6 levels deep, about 392 000 characters
    for path in (("oracle", "type"), ("optimizer", "method")):
        yield pytest.param("config", (None, path), NESTED, id=f"{'.'.join(path)}-nested")
    yield pytest.param("analyze", QUOTED_FILES["mps-shape"][1], NESTED, id="mps-shape-nested")


@pytest.mark.parametrize("kind, target, value", _quoting_cases())
def test_a_rejected_input_value_is_quoted_short(tmp_path, capsys, monkeypatch, kind, target, value):
    # a 4001-digit integer was echoed in 4038-4108 characters, a long string whole
    bad = tmp_path / f"bad-{kind}"
    if kind == "config":
        monkeypatch.setattr(cli, "build_oracle", lambda config: pytest.fail("oracle was built"))
        oracle, path = target
        raw = base_config(tmp_path)
        raw = with_field(raw, oracle, path, value) if path else {**raw, str(value): 1}
    else:
        made = target(value)
        bad.write_text(made if isinstance(made, str) else json.dumps(made))
        raw = base_config(tmp_path, n=3 if kind == "dimacs" else 1, k_max=0,
                          oracle={"type": kind, "path": str(bad)})
    argv = ["analyze", str(bad)]
    if kind != "analyze":
        argv = ["run", write_json(tmp_path / "config.json", raw)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if kind != "config":  # a format error names its file once; a count mismatch is the config's
        assert err.count(str(bad)) == ("config says" not in err)
    assert len(err) <= len(argv[1]) + 120


def test_readme_config_block_matches_schema():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("Config keys (exact", 1)[1].split("```json", 1)[1].split("```", 1)[0]
    documented = {}

    def walk(obj, path):
        documented[path] = sorted(obj)
        for key, value in obj.items():
            if isinstance(value, dict):
                walk(value, f"{path}.{key}" if path else key)

    walk(json.loads(block), "")
    assert documented == {path: sorted(keys) for path, keys in cli.CONFIG_SCHEMA.items()}


def test_run_and_analyze_take_one_schmidt_spectrum_per_cut(tmp_path, monkeypatch):
    cuts = []
    spectrum = tensor.schmidt_spectrum

    def counted(state, cut, *args):
        cuts.append(cut)
        return spectrum(state, cut, *args)

    # count calls through either module's name, wherever the audit loop lives
    monkeypatch.setattr(tensor, "schmidt_spectrum", counted)
    monkeypatch.setattr(cli, "schmidt_spectrum", counted, raising=False)
    config = cli.config_from_dict(base_config(tmp_path, n=4))
    cli.main_run(config)
    assert cuts == [1, 2, 3]
    cuts.clear()
    cli.main_analyze(config.output_path, out=io.StringIO())
    assert cuts == [1, 2, 3]


CONFIG_KEYS = st.sampled_from(
    ["n", "k_max", "oracle", "type", "path", "preset", "t", "params", "coupling", "field",
     "planted", "k", "seed", "phases_seed", "optimizer", "method", "max_iters", "tol_loss",
     "restarts", "shots", "cert_tol", "output_path"]
)
JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.sampled_from(NON_FINITE)
    | st.text(max_size=8)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(CONFIG_KEYS | st.text(max_size=8), inner, max_size=6),
    max_leaves=20,
)


def objects_in(value):
    """value and every JSON object nested in it."""
    if isinstance(value, dict):
        yield value
        for inner in value.values():
            yield from objects_in(inner)
    elif isinstance(value, list):
        for inner in value:
            yield from objects_in(inner)


@pytest.fixture(scope="module")
def fuzz_bases(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("fuzz")
    return [base_config(tmp_path), base_config(tmp_path, oracle=TFI),
            base_config(tmp_path, oracle=PLANTED)]


@given(data=st.data())
def test_config_from_dict_raises_only_validation_errors(fuzz_bases, data):
    if data.draw(st.booleans(), label="free-form"):
        raw = data.draw(JSON_VALUES, label="raw")
    else:
        raw = copy.deepcopy(data.draw(st.sampled_from(fuzz_bases), label="base"))
        for _ in range(data.draw(st.integers(1, 3), label="mutations")):
            target = data.draw(st.sampled_from(list(objects_in(raw))), label="object")
            key = data.draw(CONFIG_KEYS, label="key")
            if data.draw(st.booleans(), label="delete"):
                target.pop(key, None)
            else:
                # half scalars: most config fields take one
                target[key] = data.draw(JSON_SCALARS | JSON_VALUES, label="value")
    try:
        config = cli.config_from_dict(raw)
    except ValidationError:
        return
    assert isinstance(config, cli.RunConfig)
    # a non-finite float in any numeric field must have raised (ints cannot hold one)
    floats = [config.cert_tol, config.oracle.t, config.optimizer.tol_loss]
    floats += [config.oracle.params[key] for key in ("coupling", "field")
               if key in config.oracle.params]
    assert all(math.isfinite(x) for x in floats if x is not None)


@given(data=st.data())
def test_non_finite_float_in_any_numeric_field_raises(fuzz_bases, data):
    oracle, path = data.draw(st.sampled_from(NUMERIC_FIELDS), label="field")
    value = data.draw(st.sampled_from(NON_FINITE), label="value")
    raw = with_field(copy.deepcopy(fuzz_bases[0]), oracle, path, value)
    with pytest.raises(ValidationError, match=path[-1]):
        cli.config_from_dict(raw)
