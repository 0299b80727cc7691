"""The CI workflow is valid YAML with a runnable step list: a broken
workflow cannot report on itself."""

import pathlib

import yaml

WORKFLOW = pathlib.Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


def test_ci_workflow_parses_and_every_step_runs_something():
    doc = yaml.safe_load(WORKFLOW.read_text())
    steps = doc["jobs"]["tests"]["steps"]
    assert steps
    for step in steps:
        assert "run" in step or "uses" in step, step
