"""Seeded benchmark inputs: candidate catalogs, user profiles and queries.

Everything comes from ``random.Random(seed)``, the package's bundled
``data/lexicons.json`` and the fixed word lists below; nothing is downloaded.
The same seed gives byte-identical documents.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LEXICONS_PATH = ROOT / "src" / "appraisal_explainer" / "data" / "lexicons.json"

# The five dietary situations every profile mix covers.
CONSTRAINT_MIX = ((), ("vegetarian",), ("gluten-free",), ("no-nuts",), ("dairy-free",))

BASES = (
    "pasta", "tacos", "curry", "salad", "soup", "bowl", "stir-fry", "pizza",
    "risotto", "burger", "wrap", "stew", "noodles", "omelette", "casserole",
    "flatbread", "skillet", "chili", "dumplings", "sandwich",
)
MAINS = (
    "chickpea", "tofu", "chicken", "beef", "salmon", "mushroom", "lentil",
    "shrimp", "egg", "halloumi", "pork", "bean", "paneer", "turkey", "veggie",
)
INGREDIENTS = (
    "rice", "pasta", "corn tortillas", "black beans", "bell peppers", "salsa",
    "spinach", "tomato sauce", "garlic", "onion", "ginger", "soy sauce",
    "coconut milk", "lime", "basil", "cilantro", "olive oil", "quinoa",
    "sweet potato", "broccoli", "carrots", "zucchini", "chickpeas", "tofu",
    "chicken thighs", "ground beef", "salmon fillet", "eggs", "feta",
    "mozzarella", "cheddar cheese", "greek yogurt", "pizza dough",
    # Tokens that dietary constraints look for: "nuts", "gluten", "dairy".
    "mixed nuts", "pine nuts", "peanuts", "wheat gluten", "dairy cream",
    "dairy butter",
)
TAGS = (
    "quick", "customizable", "classic", "healthy", "spicy", "vegan",
    "gluten-free", "dairy-free", "one-pot", "kid friendly", "comfort food",
    "high protein", "make ahead", "budget",
)
FILLER = (
    "with", "and", "over", "topped", "served", "alongside", "plus", "in",
    "a", "the", "bright", "simple", "weeknight", "sauce", "herbs", "crunchy",
)
GOALS = ("healthy", "protein", "balanced", "variety", "nutritious", "fitness", "budget")
LEADS = ("Find me", "I want", "Suggest", "Can you pick", "Looking for")
MEALS = ("dinner", "lunch", "a snack", "tonight", "the family", "after the gym")


def load_word_lists(path: Path = LEXICONS_PATH) -> tuple[list[str], list[str]]:
    """(dimension keywords, sentiment words) from the bundled lexicons."""
    doc = json.loads(path.read_text("utf-8"))
    keywords = sorted({w for words in doc["dimensions"].values() for w in words})
    sentiment = sorted(set(doc["sentiment"]["positive"]) | set(doc["sentiment"]["negative"]))
    return keywords, sentiment


def candidate(rng: random.Random, index: int, keywords, sentiment) -> dict:
    base = rng.choice(BASES)
    words = [rng.choice(sentiment), base, "with"]
    for _ in range(rng.randint(5, 11)):
        pool = rng.random()
        words.append(
            rng.choice(sentiment) if pool < 0.25
            else rng.choice(keywords) if pool < 0.45
            else rng.choice(FILLER)
        )
    tags = rng.sample(TAGS, rng.randint(0, 3))
    if rng.random() < 0.35:
        tags.append("vegetarian")
    return {
        "id": f"c{index:05d}",
        "name": f"{rng.choice(sentiment).title()} {rng.choice(MAINS).title()} {base.title()}",
        "description": "A " + " ".join(words) + ".",
        "prep_time_minutes": rng.randint(5, 90),
        "ingredients": rng.sample(INGREDIENTS, rng.randint(3, 7)),
        "tags": tags,
        "customization_options": rng.randint(0, 5),
    }


def catalog(rng: random.Random, size: int, keywords, sentiment) -> list[dict]:
    return [candidate(rng, index, keywords, sentiment) for index in range(size)]


def query(rng: random.Random, keywords, sentiment, with_duration: bool) -> str:
    """A request; ``with_duration`` adds a time limit the engine can parse."""
    text = (
        f"{rng.choice(LEADS)} something {rng.choice(keywords)} and "
        f"{rng.choice(sentiment)}, maybe a {rng.choice(BASES)} for {rng.choice(MEALS)}"
    )
    if rng.random() < 0.5:
        text += f", I feel {rng.choice(keywords)}"
    if with_duration:
        text += rng.choice(
            (f", I have {rng.randint(10, 90)} minutes", ", ready in half an hour",
             f" in {rng.randint(10, 60)} min", ", I have an hour")
        )
    return text + "."


def profile(rng: random.Random, user_id: str, constraints, keywords, sentiment) -> dict:
    return {
        "user_id": user_id,
        "description": (
            f"{rng.choice(sentiment).title()} home cook who likes "
            f"{rng.choice(keywords)} {rng.choice(BASES)} and {rng.choice(keywords)} meals."
        ),
        "goals": rng.sample(GOALS, rng.randint(0, 2)),
        "preference_keywords": rng.sample(keywords, rng.randint(1, 3)),
        "dietary_constraints": list(constraints),
        "familiar_items": rng.sample(INGREDIENTS + BASES, rng.randint(2, 5)),
        "history_queries": [
            query(rng, keywords, sentiment, rng.random() < 0.5)
            for _ in range(rng.randint(0, 2))
        ],
    }


def profile_mix(rng: random.Random, count: int, keywords, sentiment) -> list[dict]:
    """``count`` profiles cycling through every entry of CONSTRAINT_MIX."""
    return [
        profile(rng, f"u{i:03d}", CONSTRAINT_MIX[i % len(CONSTRAINT_MIX)], keywords, sentiment)
        for i in range(count)
    ]


def query_mix(rng: random.Random, count: int, keywords, sentiment) -> list[str]:
    """``count`` queries, alternately with and without a parseable duration."""
    return [query(rng, keywords, sentiment, i % 2 == 0) for i in range(count)]


def dump(doc) -> bytes:
    """The bytes written for a generated document."""
    return (json.dumps(doc, indent=2, ensure_ascii=False) + "\n").encode("utf-8")
