"""The package's public surface: ``__all__`` lists exactly what ``__init__``
imports, a star import of it works, and importing it leaves the HTTP client
stack and the thread pool for first use."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import sffuse


def test_all_is_exactly_the_imported_names() -> None:
    tree = ast.parse(Path(sffuse.__file__).read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert sorted(sffuse.__all__) == sorted(imported)
    assert len(set(sffuse.__all__)) == len(sffuse.__all__)


def test_star_import_binds_every_exported_name() -> None:
    namespace: dict = {}
    exec("from sffuse import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(sffuse.__all__)


# Run in a fresh interpreter: what ``import sffuse.cli`` adds to the modules
# the interpreter started with (``site`` may preload some), then a first use
# of each deferred import.
COLD_START = """
import json, sys
preloaded = set(sys.modules)
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
print(json.dumps({"loaded": loaded, "refused": refused,
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
    assert result["loaded"] == []
    assert result["refused"].startswith("endpoint unreachable for i/A: ")
    assert result["same"]
