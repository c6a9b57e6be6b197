"""Shared fixtures: a small realistic scoring corpus, toy noise corpora and a
mock translator whose prefix hypotheses are unstable."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from multisimul.corpus import TokenSequence, TranscriptPair
from multisimul.mock_mt import LexiconTranslator
from multisimul.noise import train_noise_model

# 20 hypothesis/reference pairs with punctuation, numbers and varied lengths.
FIXTURE_HYPS = [
    "The committee approved the budget on Tuesday.",
    "Prices rose by 4.5 percent in the last quarter.",
    "She said the results were, in fact, surprising.",
    "Delegates from 27 countries attended the summit.",
    "The river flooded three villages near the border.",
    "He finished the race in 2 hours and 11 minutes.",
    "Researchers published their findings in April.",
    "The new law takes effect on January 1, 2027.",
    "Farmers reported heavy losses after the drought.",
    "The museum reopened after a two-year renovation.",
    "Officials denied any involvement in the scheme.",
    "A spokesman confirmed the talks will continue.",
    "The orchestra performed to a sold-out audience.",
    "Exports fell sharply, hurting local industry.",
    "The court rejected the appeal on Friday morning.",
    "Engineers tested the bridge for safety concerns.",
    "Voters approved the measure by a narrow margin.",
    "The company hired 350 workers this year alone.",
    "Scientists warned of rising sea levels again.",
    "The festival attracted visitors from abroad.",
]

FIXTURE_REFS = [
    "The committee passed the budget on Tuesday.",
    "Prices increased by 4.5 percent in the final quarter.",
    "She said that the results were in fact surprising.",
    "Delegates of 27 nations attended the summit.",
    "The river flooded three villages close to the border.",
    "He completed the race in 2 hours and 11 minutes.",
    "Researchers released their findings in April.",
    "The new law comes into force on January 1, 2027.",
    "Farmers reported severe losses after the drought.",
    "The museum reopened following a two-year renovation.",
    "Officials denied all involvement in the scheme.",
    "A spokesman confirmed that the talks would continue.",
    "The orchestra played to a sold-out audience.",
    "Exports dropped sharply, hurting local industry.",
    "The court dismissed the appeal on Friday morning.",
    "Engineers inspected the bridge for safety concerns.",
    "Voters passed the measure by a narrow margin.",
    "The company employed 350 workers this year alone.",
    "Scientists warned about rising sea levels again.",
    "The festival drew visitors from abroad.",
]

FIXTURE_REFS_B = [
    "On Tuesday the committee approved the budget.",
    "In the last quarter prices rose by 4.5 percent.",
    "The results, she said, were indeed surprising.",
    "The summit was attended by delegates from 27 countries.",
    "Three villages near the border were flooded by the river.",
    "His race time was 2 hours and 11 minutes.",
    "Their findings were published in April by researchers.",
    "January 1, 2027 is when the new law takes effect.",
    "After the drought, farmers reported heavy losses.",
    "After a two-year renovation, the museum reopened.",
    "Any involvement in the scheme was denied by officials.",
    "The talks will continue, a spokesman confirmed.",
    "A sold-out audience heard the orchestra perform.",
    "Local industry was hurt as exports fell sharply.",
    "On Friday morning the court rejected the appeal.",
    "The bridge was tested by engineers for safety concerns.",
    "By a narrow margin, voters approved the measure.",
    "This year alone the company hired 350 workers.",
    "Rising sea levels were again the subject of warnings.",
    "Visitors from abroad were attracted by the festival.",
]


def synthetic_corpus(
    n_sentences: int,
    vocab_size: int = 50,
    tokens_per_sentence: int = 10,
    seed: int = 7,
    word_prefix: str = "w",
) -> list[TokenSequence]:
    """Random sentences over a small closed vocabulary."""
    rng = np.random.default_rng(seed)
    vocab = [f"{word_prefix}{i:03d}" for i in range(vocab_size)]
    sentences = []
    for _ in range(n_sentences):
        idx = rng.integers(0, vocab_size, size=tokens_per_sentence)
        sentences.append(TokenSequence.from_tokens([vocab[i] for i in idx]))
    return sentences


def corrupt_for_training(
    sentences: list[TokenSequence],
    seed: int = 11,
    vocab_size: int = 50,
    word_prefix: str = "w",
    junk_prefix: str = "x",
) -> list[TranscriptPair]:
    """Hand-rolled corruption (not the noise module) to get training pairs.

    Substitutions map every vocabulary word to junk forms so the trained
    substitution table covers the whole vocabulary.
    """
    rng = np.random.default_rng(seed)
    vocab = [f"{word_prefix}{i:03d}" for i in range(vocab_size)]
    pairs = []
    for sent in sentences:
        hyp: list[str] = []
        for tok in sent.tokens:
            r = rng.random()
            if r < 0.05:
                continue  # deletion
            if r < 0.17:
                hyp.append(f"{junk_prefix}{rng.integers(0, vocab_size):03d}")
            else:
                hyp.append(tok)
            if rng.random() < 0.03:
                hyp.append(vocab[rng.integers(0, vocab_size)])
        if not hyp:
            hyp = [sent.tokens[0]]
        pairs.append(TranscriptPair(sent, TokenSequence.from_tokens(hyp)))
    return pairs


class ReorderingTranslator:
    """Lexicon translator that guesses words of a deferred class until input ends.

    On a query that is not final, each deferred source word ``w`` is read as
    ``<w?>``, which the lexicon mock copies as an unknown word; once
    end-of-input is signaled the real lexicon entry is used. So prefix
    hypotheses are unstable by construction.
    """

    def __init__(self, lexicon, deferred):
        self.inner = LexiconTranslator(lexicon)
        self.deferred = set(deferred)

    def _guess(self, source):
        return tuple(f"<{tok}?>" if tok in self.deferred else tok for tok in source)

    def output_tokens(self, source):
        return self.inner.output_tokens(source) | self.inner.output_tokens(self._guess(source))

    def decode(self, source_prefix, forced_target, vocab, final=False):
        if not final:
            source_prefix = self._guess(source_prefix)
        return self.inner.decode(source_prefix, forced_target, vocab, final)


@pytest.fixture(scope="session")
def fixture_corpus():
    return FIXTURE_HYPS, FIXTURE_REFS, FIXTURE_REFS_B


@pytest.fixture(scope="session")
def toy_noise_model():
    """A noise model trained on a synthetic corrupted corpus (session-wide)."""
    gold = synthetic_corpus(400, seed=7)
    pairs = corrupt_for_training(gold, seed=11)
    return train_noise_model(pairs)
