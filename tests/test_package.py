"""The package's import cost: each name is imported from the module that
defines it, so ``import sffuse.tag_grammar`` loads only what that module
needs, and importing the CLI leaves the HTTP client stack and the thread
pool for first use."""

import json
import os
import subprocess
import sys
from pathlib import Path


# Run in a fresh interpreter: the package modules ``import sffuse.tag_grammar``
# loads, what ``import sffuse.cli`` adds to the modules the interpreter
# started with (``site`` may preload some), then a first use of each deferred
# import.
COLD_START = """
import json, sys
preloaded = set(sys.modules)
import sffuse.tag_grammar
grammar = sorted(name for name in sys.modules if name.partition(".")[0] == "sffuse")
import sffuse.cli
loaded = sorted(set(sys.argv[1:]) & (set(sys.modules) - preloaded))
from sffuse.config import EndpointConfig, PipelineConfig
from sffuse.pem_pipeline import (HashEmbedder, HttpSampler, Instance, MockCotSampler,
                                 ProbeSetting, SamplingError, annotate, read_instances)
try:
    HttpSampler(EndpointConfig(base_url="http://127.0.0.1:9/chat", retries=0)).sample(
        Instance("i", "q", "g"), ProbeSetting.A, 2)
    refused = None
except SamplingError as exc:
    refused = str(exc)
dataset = read_instances("tests/data/instances_12.jsonl")
runs = [annotate(dataset, MockCotSampler(), HashEmbedder(), PipelineConfig(parallelism=k))
        for k in (1, 2)]
print(json.dumps({"grammar": grammar, "loaded": loaded, "refused": refused,
                  "same": runs[0].records == runs[1].records
                          and runs[0].labeled == runs[1].labeled}))
"""

DEFERRED = ("http.client", "urllib.request", "urllib.error", "email.parser", "ssl",
            "socket", "concurrent.futures", "importlib.resources")


def test_import_defers_the_http_stack_until_first_use() -> None:
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-c", COLD_START, *DEFERRED], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(done.stdout)
    assert result["grammar"] == ["sffuse", "sffuse.jsonl", "sffuse.tag_grammar"]
    assert result["loaded"] == []
    assert result["refused"].startswith("endpoint unreachable for i/A: ")
    assert result["same"]
