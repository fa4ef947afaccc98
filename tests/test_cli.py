import copy
import io
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import ghz
from eigenmps import cli, tensor
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
        "optimizer": {"method": "nelder-mead", "max_iters": 50, "restarts": 1},
        "shots": 0,
        "warm_start": True,
        "cert_tol": 1e-6,
        "seed": 7,
        "output_path": str(tmp_path / "record.json"),
    }
    config.update(overrides)
    return config


def test_config_round_trip(tmp_path):
    raw = base_config(tmp_path)
    config = cli.config_from_dict(raw)
    echoed = cli.config_to_dict(config)
    assert cli.config_from_dict(echoed) == config


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
        optimizer={"method": "nelder-mead", "max_iters": 400, "restarts": 3, "tol_loss": 1e-14},
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
        optimizer={"method": "nelder-mead", "max_iters": 150, "restarts": 2},
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


@pytest.mark.parametrize("bad", ["ten", [1]])
@pytest.mark.parametrize(
    "oracle, path",
    [
        (None, ("n",)),
        (None, ("k_max",)),
        (None, ("seed",)),
        (None, ("shots",)),
        (None, ("cert_tol",)),
        (None, ("oracle", "t")),
        (None, ("optimizer", "max_iters")),
        (None, ("optimizer", "tol_loss")),
        (None, ("optimizer", "fd_step")),
        (None, ("optimizer", "restarts")),
        (TFI, ("oracle", "params", "coupling")),
        (TFI, ("oracle", "params", "field")),
        (PLANTED, ("oracle", "planted", "k")),
        (PLANTED, ("oracle", "planted", "seed")),
        (PLANTED, ("oracle", "planted", "phases_seed")),
    ],
)
def test_non_numeric_config_field_exits_2(tmp_path, capsys, oracle, path, bad):
    raw = base_config(tmp_path)
    if oracle is not None:
        raw["oracle"] = copy.deepcopy(oracle)
    target = raw
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = bad
    code, err = run_exit_code(tmp_path, capsys, raw)
    assert code == 2
    assert path[-1] in err


@pytest.mark.parametrize("warm_start", ["false", 0, None])
def test_warm_start_must_be_a_json_boolean(tmp_path, capsys, warm_start):
    code, err = run_exit_code(tmp_path, capsys, base_config(tmp_path, warm_start=warm_start))
    assert code == 2
    assert "warm_start" in err


@pytest.mark.parametrize("cert_tol", [-1, -1e-9, 1.0, 2.5])
def test_cert_tol_outside_unit_interval_exits_2(tmp_path, capsys, cert_tol):
    code, err = run_exit_code(tmp_path, capsys, base_config(tmp_path, cert_tol=cert_tol))
    assert code == 2
    assert "cert_tol" in err


@pytest.mark.parametrize("kind", ["dimacs", "sat", "tfi", "planted", "dense"])
def test_capacity_checked_before_any_allocation(tmp_path, capsys, kind):
    # n=64 is far past every cap: the oracle build would ask for 2^64 entries
    cnf = tmp_path / "wide.cnf"
    cnf.write_text("p cnf 64 1\n1 -64 0\n")
    oracle = {
        "dimacs": {"type": "dimacs", "path": str(cnf)},
        "sat": {"type": "hamiltonian", "preset": "sat", "path": str(cnf)},
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


def test_analyze_one_qubit_zero_mps_exits_2(tmp_path, capsys):
    assert cli.main(["analyze", one_qubit_mps_file(tmp_path, [0.0, 0.0])]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "zero" in err


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
     "fd_step", "restarts", "shots", "warm_start", "cert_tol", "output_path"]
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
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
                target[key] = data.draw(JSON_VALUES, label="value")
    try:
        config = cli.config_from_dict(raw)
    except ValidationError:
        return
    assert isinstance(config, cli.RunConfig)
