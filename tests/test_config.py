from dataclasses import dataclass, fields

import pytest

from mipipe.config import (EnsembleConfig, PipelineConfig, SearchSpace, config_from_dict,
                           pipeline_config_from_dict, pipeline_config_to_dict)
from mipipe.errors import ConfigError
from mipipe.features import DEFAULT_AR_ORDER
from mipipe.preprocess import PreprocessConfig
from mipipe.synthgen import SynthConfig, synth_config_from_dict

SEARCH = {"bands_hz": [[12, 14]], "windows_s": [[0.5, 4.5]]}


@pytest.mark.parametrize("doc,where,names", [
    ({"preprocess": {"band_hz": [12, 14], "band": [1, 2], "spatial_ref": "CAR"}},
     "preprocess", ["band", "spatial_ref"]),
    ({"preprocess": {"lowpass_hz": 5, "baseline_window_s": [0, 0.5]}},
     "preprocess", ["baseline_window_s", "lowpass_hz"]),
    ({"ensemble": {"rounds": 3, "round": 3}}, "ensemble", ["round"]),
    ({"search": {**SEARCH, "band_hz": [[8, 10]]}}, "search", ["band_hz"]),
    ({"m": 1, "bogus": 2}, "config", ["bogus"]),
    ({"adapt": True}, "config", ["adapt"]),
])
def test_unknown_keys_rejected_by_name(doc, where, names):
    with pytest.raises(ConfigError) as info:
        pipeline_config_from_dict(doc)
    assert str(info.value) == f"unknown {where} fields: {names}"


@pytest.mark.parametrize("key", ["preprocess", "ensemble", "search"])
def test_sub_object_must_be_an_object(key):
    with pytest.raises(ConfigError, match=f"{key} must be a JSON object"):
        pipeline_config_from_dict({key: [1, 2]})


def test_echo_holds_only_fields_the_pipeline_reads():
    config = pipeline_config_from_dict({"search": SEARCH})
    doc = pipeline_config_to_dict(config)
    assert doc["preprocess"] == {"band_hz": (12.0, 14.0), "window_s": (0.5, 4.5)}
    assert set(doc["ensemble"]) == {"rounds", "subset_fraction", "seed"}
    assert set(doc["search"]) == {"bands_hz", "windows_s", "channel_sets", "m_values"}


@pytest.mark.parametrize("search,message", [
    ({"bands_hz": [[8, 12]]}, "search.windows_s is missing"),
    ({"windows_s": [[0.5, 2.5]]}, "search.bands_hz is missing"),
    ({"bands_hz": None, "windows_s": [[0.5, 2.5]]}, "search.bands_hz is missing"),
    ({"bands_hz": 5, "windows_s": [[0.5, 2.5]]}, "search.bands_hz must be a list, got 5"),
    ({"bands_hz": [[8, 12]], "windows_s": "0.5-2.5"},
     "search.windows_s must be a list, got '0.5-2.5'"),
    ({**SEARCH, "channel_sets": 3}, "search.channel_sets must be a list, got 3"),
    ({**SEARCH, "m_values": 2}, "search.m_values must be a list of integers, got 2"),
])
def test_search_fields_named_when_missing_or_not_lists(search, message):
    with pytest.raises(ConfigError) as info:
        pipeline_config_from_dict({"search": search})
    assert str(info.value) == message


def test_search_optional_fields_default():
    space = pipeline_config_from_dict({"search": {**SEARCH, "channel_sets": None}}).search
    assert (space.channel_sets, space.m_values) == ((None,), (1,))


@pytest.mark.parametrize("doc,message", [
    ({"method": "ar", "ar_band_hz": None}, "ar_band_hz must be a pair of numbers, got None"),
    ({"lrp_baseline_window_s": None},
     "lrp_baseline_window_s must be a pair of numbers, got None"),
    ({"lrp_feature_window_s": None}, "lrp_feature_window_s must be a pair of numbers, got None"),
    ({"lrp_feature_window_s": [0.5, "1.5"]},
     "lrp_feature_window_s must be a number, got '1.5'"),
    ({"lrp_lowpass_hz": "1.5"}, "lrp_lowpass_hz must be a number, got '1.5'"),
    ({"lrp_lowpass_hz": None}, "lrp_lowpass_hz must be a number, got None"),
    ({"ensemble": {"subset_fraction": "1.5"}},
     "ensemble.subset_fraction must be a number, got '1.5'"),
    ({"ensemble": {"subset_fraction": True}},
     "ensemble.subset_fraction must be a number, got True"),
    ({"search": {"bands_hz": [None], "windows_s": [[0.5, 2.5]]}},
     "search.bands_hz must be a pair of numbers, got None"),
    ({"search": {"bands_hz": [[8, 10]], "windows_s": [[0.5, 2.5], None]}},
     "search.windows_s must be a pair of numbers, got None"),
    ({"channels": 5}, "channels must be a list of integers, got 5"),
    ({"channels": "0,1"}, "channels must be a list of integers, got '0,1'"),
    ({"search": {**SEARCH, "channel_sets": [None, 5]}},
     "search.channel_sets must be a list of integers, got 5"),
])
def test_fields_the_pipeline_cannot_honour_rejected_by_name(doc, message):
    with pytest.raises(ConfigError) as info:
        pipeline_config_from_dict(doc)
    assert str(info.value) == message


def test_number_fields_keep_their_values():
    config = pipeline_config_from_dict({"lrp_lowpass_hz": 2, "ar_band_hz": [7, 30],
                                        "ensemble": {"subset_fraction": 0.25}})
    assert (config.lrp_lowpass_hz, config.ar_band_hz) == (2.0, (7.0, 30.0))
    assert config.ensemble.subset_fraction == 0.25


def test_absent_fields_take_the_dataclass_defaults():
    assert pipeline_config_from_dict({}) == PipelineConfig()
    assert pipeline_config_from_dict({"ensemble": {}, "m": 2}) == PipelineConfig(m=2)
    assert PipelineConfig().ar_order == DEFAULT_AR_ORDER


# each config class: how a doc of its fields is read, and its fields' prefix
READERS = {
    PipelineConfig: (pipeline_config_from_dict, ""),
    PreprocessConfig: (lambda doc: pipeline_config_from_dict({"preprocess": doc}), "preprocess."),
    EnsembleConfig: (lambda doc: pipeline_config_from_dict({"ensemble": doc}), "ensemble."),
    SearchSpace: (lambda doc: pipeline_config_from_dict({"search": SEARCH | doc}), "search."),
    SynthConfig: (synth_config_from_dict, ""),
}
NESTED = {"preprocess", "ensemble", "search"}  # object fields: {} is of the right type


@pytest.mark.parametrize("cls,name,value", [
    (cls, f.name, value) for cls in READERS for f in fields(cls) if f.name != "method"
    for value in ([[{}]] if f.name in NESTED else [{}, [{}]])
], ids=lambda v: getattr(v, "__name__", None))
def test_every_field_rejects_a_wrong_json_type_by_its_dotted_name(cls, name, value):
    read, prefix = READERS[cls]
    with pytest.raises(ConfigError) as info:
        read({name: value})
    assert str(info.value).startswith(f"{prefix}{name} "), str(info.value)


def test_method_is_checked_by_the_pipeline_config():
    with pytest.raises(ConfigError) as info:
        pipeline_config_from_dict({"method": {}})
    assert str(info.value) == "unknown method {}"


def test_reader_refuses_an_annotation_it_cannot_check():
    @dataclass(frozen=True)
    class Flagged:
        flag: bool = False

    with pytest.raises(TypeError):
        config_from_dict(Flagged, {"flag": True}, "flagged")
