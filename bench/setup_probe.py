"""One set-up probe, run in a fresh interpreter by ``run.py``.

    python3 setup_probe.py SRC CONFIG_JSON NUM_SOURCES_JSON LAUNCHED

Imports transferlab from SRC, validates the config, builds its first
population and prints the seconds since LAUNCHED, a ``time.monotonic()``
reading the parent took just before starting this process.
"""
import sys

src, config_json, num_sources_json, launched = sys.argv[1:5]
sys.path.insert(0, src)

import json  # noqa: E402
import time  # noqa: E402

from transferlab.cli import ExperimentConfig, build_population  # noqa: E402

config = ExperimentConfig.from_dict(json.loads(config_json))
build_population(config.population, config.seed, num_sources=json.loads(num_sources_json))
print(time.monotonic() - float(launched))
