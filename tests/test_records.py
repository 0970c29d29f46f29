import dataclasses
import math
import typing
from fractions import Fraction
from typing import Annotated, Literal

import numpy as np
import pytest

from hybench import agents, bench, data, envs, models
from hybench.records import (
    Count,
    Positive,
    Probability,
    Range,
    check_fields,
    check_keys,
    field_types,
    read_record,
    read_value,
    write_record,
)

# every dataclass a JSON record is read into
RECORD_CLASSES = [agents.AgentConfig, models.ModelConfig, data.DatasetRecipe,
                  data.DatasetMeta, envs.PendulumParams, envs.WindyGridParams,
                  envs.BanditSpec, models.FeatureMap, models.GaussianRegressor,
                  models.CorrectionEnsemble, agents._PolicyRecord, agents.QFunction,
                  agents.BehaviorModel, bench.BenchConfig, bench.BenchEnv,
                  bench.BenchAgent, bench.DatasetFile, bench.RunResult,
                  envs.DiscreteActions, envs.ContinuousActions]


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda c: c.__name__)
def test_every_field_annotation_is_readable(cls):
    # a field of a type the reader cannot read fails here, not when a user
    # loads a config
    annotations, _ = field_types(cls)
    assert set(annotations) == {f.name for f in dataclasses.fields(cls)}


def test_unreadable_annotation_rejected():
    @dataclasses.dataclass
    class Odd:
        tags: set

    with pytest.raises(TypeError, match="Odd.tags"):
        field_types(Odd)


def test_check_keys_messages():
    assert check_keys({"a": 1}, "thing", ("a",), ("b",)) == {"a": 1}
    with pytest.raises(ValueError, match=r"thing must be a JSON object, got list"):
        check_keys([1], "thing", ("a",))
    with pytest.raises(ValueError, match=r"unknown thing keys \['c'\]; valid: \['a', 'b'\]"):
        check_keys({"a": 1, "c": 2}, "thing", ("a",), ("b",))
    with pytest.raises(ValueError, match=r"thing is missing required keys \['a'\]"):
        check_keys({"b": 1}, "thing", ("a",), ("b",))


def test_accepted_values_keep_their_type():
    params = read_record(envs.PendulumParams, {"gravity": 10, "horizon": 7}, "params")
    assert type(params.gravity) is int and params.horizon == 7
    spec = read_record(envs.BanditSpec, {"reward_table": [[0, 0.5], [1, Fraction(1, 3)]]},
                       "spec")
    assert spec.reward_table == ((0, 0.5), (1, Fraction(1, 3)))
    assert read_value(float, Fraction(1, 3), "p") == Fraction(1, 3)


def test_nested_record_read_over_its_base():
    base = agents.AgentConfig(epochs=4, model=models.ModelConfig(n_members=3))
    cfg = read_record(agents.AgentConfig,
                      {"lam": 1, "model": {"input_scale": [1, 0.5]}}, "agent config", base)
    assert (cfg.epochs, cfg.lam, cfg.model.n_members) == (4, 1, 3)
    assert cfg.model.input_scale == (1, 0.5)


# the ids set by hand keep each case's name, which quotes its message without ">= 0"
@pytest.mark.parametrize("tp,value,message", [
    pytest.param(int, True, "x must be an integer >= 0, got True",
                 id="int-True-x must be an integer, got True"),
    pytest.param(int, 2.0, "x must be an integer >= 0, got 2.0",
                 id="int-2.0-x must be an integer, got 2.0"),
    (float, float("nan"), "x must be a finite number, got nan"),
    (float, False, "x must be a finite number, got False"),
    (bool, 1, "x must be true or false, got 1"),
    (str, 1, "x must be a string, got 1"),
    (dict, [], "x must be an object, got []"),
    pytest.param(int | None, "1", "x must be an integer >= 0 or null, got '1'",
                 id="tp7-1-x must be an integer or null, got '1'"),
    pytest.param(tuple[int, ...], "12", "x must be a list of integers >= 0, got '12'",
                 id="tuple-12-x must be a list of integers, got '12'"),
    pytest.param(tuple[int, int], [1, 2, 3],
                 "x must be a list of 2 integers >= 0, got [1, 2, 3]",
                 id="tuple-value9-x must be a list of 2 integers, got [1, 2, 3]"),
    (tuple[tuple[float, float], tuple[float, float]], [[1, 2], [3]],
     "x must be a list of 2 lists of 2 finite numbers, got [[1, 2], [3]]"),
    (int, -1, "x must be an integer >= 0, got -1"),
    # a value of the right type outside its range names the range
    (Count | None, 0, "x must be >= 1, got 0"),
    (Count | None, 1.5, "x must be an integer >= 0 or null, got 1.5"),
    (Probability, Fraction(3, 2), "x must be in [0, 1], got Fraction(3, 2)"),
    (Positive, 0.0, "x must be > 0, got 0.0"),
    (Annotated[float, Range(0, 1, hi_open=True)], 1, "x must be in [0, 1), got 1"),
    (envs.BanditSpec, {"reward_table": [[0, 1.5], [0, 0]]},
     "x.reward_table[0][1] must be in [0, 1], got 1.5"),
])
def test_value_mismatch_names_field_and_type(tp, value, message):
    with pytest.raises(ValueError) as err:
        read_value(tp, value, "x")
    assert str(err.value) == message


def test_post_init_range_checks_still_run():
    with pytest.raises(ValueError, match="epochs must be >= 1"):
        read_record(agents.AgentConfig, {"epochs": 0}, "agent config")
    with pytest.raises(ValueError, match="missing required keys"):
        read_record(data.DatasetMeta, {"env_name": "x"}, "metadata")


@pytest.mark.parametrize("value", [[[1, 2], [3]], [1, "2"], [True, 1.0], [float("inf")],
                                   "12", 3.0, [[1, [2]]]])
def test_array_field_takes_only_nested_lists_of_finite_numbers(value):
    with pytest.raises(ValueError, match="w must be a nested list of finite numbers"):
        read_value(np.ndarray, value, "w")


def test_array_field_reads_floats():
    arr = read_value(np.ndarray, [[1, 2.5], [-3, 0]], "w")
    assert arr.dtype == float and arr.tolist() == [[1.0, 2.5], [-3.0, 0.0]]


def test_union_of_records_reads_the_arm_whose_keys_it_has():
    space = envs.DiscreteActions | envs.ContinuousActions
    assert read_value(space, {"count": 3}, "s") == envs.DiscreteActions(3)
    assert read_value(space, {"low": -1, "high": 1}, "s") == envs.ContinuousActions(-1, 1)
    with pytest.raises(ValueError, match="s must be a DiscreteActions object or a "
                                         "ContinuousActions object, got {'count': 3, 'x': 1}"
                       ) as err:
        read_value(space, {"count": 3, "x": 1}, "s")
    # no arm fits: each arm's own key error follows
    assert str(err.value).endswith("; as DiscreteActions, unknown keys ['x']"
                                   "; as ContinuousActions, unknown keys ['count', 'x']")
    # a lone record arm reports its own errors, by path
    with pytest.raises(ValueError, match=r"unknown s keys \['x'\]"):
        read_value(envs.DiscreteActions | None, {"count": 3, "x": 1}, "s")
    with pytest.raises(ValueError, match=r"s\[1\].count must be an integer"):
        read_value(tuple[envs.DiscreteActions, ...], [{"count": 1}, {"count": 1.5}], "s")


def test_nested_range_check_names_its_path():
    fm = {"kind": "random_fourier", "input_dim": 1, "count": 0, "bandwidth": 1, "seed": 0}
    with pytest.raises(ValueError, match=r"^s\[0\]\.count must be >= 1, got 0"):
        read_value(tuple[models.FeatureMap, ...], [fm], "s")


def test_mismatch_message_is_bounded():
    with pytest.raises(ValueError) as err:
        read_value(int, list(range(10**5)), "n")
    assert str(err.value).startswith("n must be an integer >= 0, got [0, 1, 2")
    assert len(str(err.value)) < 120


def test_write_record_is_the_inverse_of_read_record():
    spec = envs.BanditSpec()  # exact Fractions become "p/q"
    assert write_record(spec)["p_z0"] == "1/3"
    fm = models.FeatureMap.polynomial(2, 3, shift=(1, -1), dim_degrees=(2, 1))
    reg = models.GaussianRegressor(fm, np.arange(6.0).reshape(3, 2), np.full(2, 0.5),
                                   np.float64(1e-3))
    out = write_record(reg)
    assert out["weights"] == [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]
    assert type(out["ridge"]) is float and out["features"]["shift"] == [1.0, -1.0]
    assert read_record(models.GaussianRegressor, out, "regressor") == reg


def test_literal_takes_one_of_its_strings():
    mode = Literal["direct", "correction"]
    assert read_value(mode, "direct", "m") == "direct"
    with pytest.raises(ValueError) as err:
        read_value(mode, "both", "m")
    assert str(err.value) == "m must be one of 'direct', 'correction', got 'both'"
    for value in (1, None, ["direct"]):
        with pytest.raises(ValueError, match="m must be one of 'direct', 'correction'"):
            read_value(mode, value, "m")


def test_literal_of_non_strings_is_unreadable():
    @dataclasses.dataclass
    class Odd:
        level: Literal[1, 2]

    with pytest.raises(TypeError, match="Odd.level"):
        field_types(Odd)


def test_check_fields_stores_lists_as_tuples():
    cfg = agents.AgentConfig(action_grid=[0, 1, 2, 3], q_input_scale=[1, 0.5, 2])
    assert cfg.action_grid == (0, 1, 2, 3) and cfg.q_input_scale == (1, 0.5, 2)
    # used to construct unhashable, and the training cache keys on the hash
    assert cfg == agents.AgentConfig(action_grid=(0, 1, 2, 3), q_input_scale=(1, 0.5, 2))
    assert hash(cfg) == hash(agents.AgentConfig(action_grid=(0, 1, 2, 3),
                                                q_input_scale=(1, 0.5, 2)))


def test_check_fields_accepts_a_nested_instance_as_it_is():
    model = models.ModelConfig(n_members=3)
    assert agents.AgentConfig(model=model).model is model
    recipe = data.DatasetRecipe(tier="random")
    config = bench.BenchConfig("x", bench.BenchEnv("windygrid"),
                               bench.BenchAgent("offline_bcq"), dataset=recipe)
    assert config.dataset is recipe

    @dataclasses.dataclass
    class Holder:
        space: envs.DiscreteActions | envs.ContinuousActions

        def __post_init__(self):
            check_fields(self)

    space = envs.ContinuousActions(-1.0, 1.0)
    assert Holder(space).space is space
    with pytest.raises(ValueError, match="space must be a DiscreteActions object or a "
                                         "ContinuousActions object, got 3"):
        Holder(3)


def _bench_config(**fields):
    return bench.BenchConfig("x", bench.BenchEnv("windygrid"), bench.BenchAgent("online_q"),
                             **fields)


@pytest.mark.parametrize("build,message", [
    # all of these used to construct, or to fail with a bare TypeError
    (lambda: _bench_config(seeds=(0.5,)),
     r"seeds must be a list of integers >= 0, got \(0.5,\)"),
    (lambda: _bench_config(eval_episodes=2.5),
     "eval_episodes must be an integer >= 0, got 2.5"),
    (lambda: _bench_config(out=3), "out must be a string or null, got 3"),
    (lambda: agents.AgentConfig(gamma="0.9"), "gamma must be a finite number, got '0.9'"),
    (lambda: models.ModelConfig(ridge="1"), "ridge must be a finite number, got '1'"),
    (lambda: data.DatasetRecipe(collect_epsilon="0.1"),
     "collect_epsilon must be a finite number, got '0.1'"),
    (lambda: bench.BenchAgent("sac"), "name must be one of 'online_q', "),
    (lambda: data.DatasetRecipe(behavior_mode="full"), "behavior_mode must be one of "),
], ids=["seeds", "eval_episodes", "out", "gamma", "ridge", "collect_epsilon", "agent",
        "behavior_mode"])
def test_record_built_in_python_is_checked_naming_field(build, message):
    with pytest.raises(ValueError, match=message):
        build()


# the record classes whose fields declare ranges; a closed end of a grid size
# constructs only with goal and start cells inside the grid
RANGED_CLASSES = [agents.AgentConfig, models.ModelConfig, envs.PendulumParams,
                  envs.WindyGridParams, envs.BanditSpec, data.DatasetRecipe]
CLOSED_END_CONTEXT = {(envs.WindyGridParams, "width"): {"goal": (0, 0), "start": (0, 1)},
                      (envs.WindyGridParams, "height"): {"goal": (0, 0), "start": (1, 0)}}


def declared_ranges(cls):
    """(field, inner type, Range) of each field of ``cls`` whose
    annotation, or a union arm of it, carries a Range."""
    for name, tp in field_types(cls)[0].items():
        for arm in typing.get_args(tp) if typing.get_origin(tp) is typing.Union else (tp,):
            if typing.get_origin(arm) is Annotated:
                yield name, *typing.get_args(arm)


@pytest.mark.parametrize("cls", RANGED_CLASSES, ids=lambda c: c.__name__)
def test_every_declared_range_is_enforced(cls):
    found = list(declared_ranges(cls))
    assert found
    for name, tp, bound in found:
        for end, is_open, outward in ((bound.lo, bound.lo_open, -1), (bound.hi, bound.hi_open, 1)):
            if math.isinf(end):
                continue
            # the first value of the field's type past the end
            outside = (end if is_open else end + outward if tp is int
                       else math.nextafter(end, outward * math.inf))
            with pytest.raises(ValueError) as err:
                cls(**{name: outside})
            assert str(err.value).startswith(f"{name} must be "), (name, outside)
            if not is_open:
                cls(**{name: end}, **CLOSED_END_CONTEXT.get((cls, name), {}))
