import json
import re

import pytest

from appraisal_explainer.errors import ConfigError
from appraisal_explainer.registry import Dimension, load_registry
from appraisal_explainer.schemas import bundled_text


def test_bundled_catalog_shape(registry):
    assert len(registry.dimensions) == 6
    assert [info.id for info in registry.dimensions] == list(Dimension)


def test_canonical_statements_nonempty(registry):
    for info in registry.dimensions:
        assert info.canonical_statement.strip()
        assert info.display_name.strip()


def test_round_trip_bundled(registry):
    assert load_registry(json.loads(bundled_text("registry.json"))) == registry


def test_display_name_override_keeps_canonical_statement(registry):
    merged = load_registry(
        {
            "dimensions": [
                {"id": "Urgency", "display_name": "Time Pressure"},
                {"id": "Agency", "display_name": "", "canonical_statement": ""},
            ]
        }
    )
    assert merged.display_name(Dimension.URGENCY) == "Time Pressure"
    urgency, agency = Dimension.URGENCY.order, Dimension.AGENCY.order
    assert merged.dimensions[urgency].canonical_statement == registry.dimensions[urgency].canonical_statement
    assert merged.dimensions[agency] == registry.dimensions[agency]
    assert [info.id for info in merged.dimensions] == list(Dimension)


def _rejected_at(doc, path):
    with pytest.raises(ConfigError, match="^" + re.escape(f"registry {path}: ")):
        load_registry(doc)


def test_unknown_dimension_rejected():
    _rejected_at({"dimensions": [{"id": "Curiosity"}]}, "$.dimensions[0].id")


def test_items_key_rejected():
    _rejected_at({"items": [{"id": "x", "statement": "s", "dimension": "Urgency"}]}, "$")


@pytest.mark.parametrize("field", ["canonical_statement", "display_name"])
def test_whitespace_canonical_statement_rejected(field):
    _rejected_at({"dimensions": [{"id": "Urgency", field: "   "}]}, f"$.dimensions[0].{field}")
