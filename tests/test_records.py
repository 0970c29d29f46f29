import dataclasses
from fractions import Fraction

import pytest

from hybench import agents, data, envs, models
from hybench.records import check_keys, field_types, read_record, read_value

# every dataclass a JSON record is read into
RECORD_CLASSES = [agents.AgentConfig, models.ModelConfig, data.DatasetRecipe,
                  data.DatasetMeta, envs.PendulumParams, envs.WindyGridParams,
                  envs.BanditSpec]


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


@pytest.mark.parametrize("tp,value,message", [
    (int, True, "x must be an integer, got True"),
    (int, 2.0, "x must be an integer, got 2.0"),
    (float, float("nan"), "x must be a finite number, got nan"),
    (float, False, "x must be a finite number, got False"),
    (bool, 1, "x must be true or false, got 1"),
    (str, 1, "x must be a string, got 1"),
    (dict, [], "x must be an object, got []"),
    (int | None, "1", "x must be an integer or null, got '1'"),
    (tuple[int, ...], "12", "x must be a list of integers, got '12'"),
    (tuple[int, int], [1, 2, 3], "x must be a list of 2 integers, got [1, 2, 3]"),
    (tuple[tuple[float, float], tuple[float, float]], [[1, 2], [3]],
     "x must be a list of 2 lists of 2 finite numbers, got [[1, 2], [3]]"),
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
