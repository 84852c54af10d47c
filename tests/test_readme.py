"""The README's library quickstart runs as written, and its configuration
example parses."""

import json
import os
import re
from dataclasses import fields

from pvprof import ArrayTopology, SdmParamsRef, WeatherProfile
from pvprof.baselines import Datasheet, GridSearchSpec
from pvprof.benchmark import RunConfig
from pvprof.preprocess import PreprocessConfig

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_library_quickstart_runs():
    with open(os.path.join(REPO, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    section = readme.split("## Library quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(block, "README.md quickstart", "exec"), namespace)
    assert namespace["result"].converged
    assert len(namespace["forecast"]) == len(namespace["series"])


def test_configuration_example_parses():
    # the documented keys are the dataclass fields that define them, so the
    # example cannot drift from what the parser takes
    with open(os.path.join(REPO, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    section = readme.split("### Configuration", 1)[1]
    block = re.search(r"```jsonc\n(.*?)```", section, re.DOTALL).group(1)
    text = re.sub(r"//[^\n]*|/\*.*?\*/", "", block, flags=re.DOTALL)
    raw = json.loads(text)
    RunConfig.from_dict(raw)
    # an unknown key is refused, so equal counts name every field
    for settings, cls in ((raw["system"]["topology"], ArrayTopology),
                          (raw["system"]["datasheet"], Datasheet),
                          (raw["preprocess"], PreprocessConfig),
                          (raw["regressors"], GridSearchSpec),
                          (raw["synth"]["true_params"], SdmParamsRef)):
        assert len(settings) == len(fields(cls)), cls.__name__
    # the synth section: every weather field but the run's seed, and the
    # generator's other arguments
    weather = {f.name for f in fields(WeatherProfile)} - {"seed"}
    assert set(raw["synth"]) == weather | {"true_params", "scenario",
                                           "noise_v", "noise_i", "alpha_isc"}
