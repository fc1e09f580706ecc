"""Shared fixtures: the bundled contexts and their cover lattices."""
from pathlib import Path

import pytest
from hypothesis import settings

from becr import build_covers, enumerate_concepts, parse_cxt

DATA = Path(__file__).resolve().parent.parent / "data"

# closure-heavy properties can blow the default 200ms deadline on slow CI
settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


def load_cxt(name):
    return parse_cxt((DATA / name).read_text(encoding="utf-8"))


# one pass/fail line per acceptance criterion, shown in the terminal summary
_acceptance_lines = []


def record_criterion(line):
    _acceptance_lines.append(line)


def pytest_terminal_summary(terminalreporter):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def toy_ctx():
    return load_cxt("toy.cxt")


@pytest.fixture(scope="session")
def toy_concepts(toy_ctx):
    return enumerate_concepts(toy_ctx)


@pytest.fixture(scope="session")
def toy_lattice(toy_concepts):
    return build_covers(toy_concepts)


@pytest.fixture(scope="session")
def davis_ctx():
    return load_cxt("davis.cxt")


@pytest.fixture(scope="session")
def davis_concepts(davis_ctx):
    return enumerate_concepts(davis_ctx)


@pytest.fixture(scope="session")
def davis_lattice(davis_concepts):
    return build_covers(davis_concepts)
