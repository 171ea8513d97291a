import json

import pytest

from appraisal_explainer.context import build_unified_context
from appraisal_explainer.fixtures import fixture_document, load_fixture
from appraisal_explainer.lexicons import load_lexicons
from appraisal_explainer.registry import load_registry


@pytest.fixture(scope="session")
def registry():
    return load_registry()


@pytest.fixture(scope="session")
def lexicons():
    return load_lexicons()


@pytest.fixture(scope="session")
def sarah():
    return load_fixture("sarah")


@pytest.fixture(scope="session")
def alex():
    return load_fixture("alex")


@pytest.fixture
def sarah_context(sarah, registry, lexicons):
    return build_unified_context(sarah.profile, sarah.query, registry, lexicons)


@pytest.fixture
def alex_context(alex, registry, lexicons):
    return build_unified_context(alex.profile, alex.query, registry, lexicons)


@pytest.fixture
def fixture_files(tmp_path):
    """Materialize a bundled fixture's profile/candidates as input files."""

    def _write(name):
        doc = fixture_document(name)
        profile = tmp_path / f"{name}_profile.json"
        candidates = tmp_path / f"{name}_candidates.json"
        profile.write_text(json.dumps(doc["profile"]), "utf-8")
        candidates.write_text(json.dumps(doc["candidates"]), "utf-8")
        return str(profile), doc["query"]["text"], str(candidates)

    return _write
