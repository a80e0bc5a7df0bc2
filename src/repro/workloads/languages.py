"""Synthetic multi-language text corpus for HD language recognition.

The paper's language-recognition task (Fig. 8a, Rahimi et al. 2016)
identifies which of 21 European languages a text sample belongs to from
its character n-gram statistics.  The original Wortschatz/Europarl
corpora are not shipped here; instead each language is an order-1
Markov chain over a 27-symbol alphabet (a-z plus space).  All languages
share a base chain; each language then *boosts* a random subset of
transitions — its "characteristic bigrams", mirroring how real
orthographies favour particular letter pairs (th, sch, ij, ...).
``distinctiveness`` is the boost factor and ``characteristic_fraction``
the boosted share; together they control how far apart the languages'
n-gram statistics are — exactly the quantity n-gram classification
keys on — so accuracy trends transfer to the real task (defaults reach
the paper-reported ~97 % regime).
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from repro._util import as_rng, check_int, check_positive

__all__ = ["ALPHABET", "LanguageCorpus"]

ALPHABET = "abcdefghijklmnopqrstuvwxyz "

# ``Generator.choice``'s tolerance on ``sum(p) == 1`` for float64 ``p``.
_PROBABILITY_ATOL = float(np.sqrt(np.finfo(np.float64).eps))


class LanguageCorpus:
    """Generator of labelled text samples for ``n_languages`` classes.

    Parameters
    ----------
    n_languages:
        Number of language classes (the paper uses 21).
    distinctiveness:
        Boost factor applied to each language's characteristic
        transitions; larger values make languages easier to tell apart.
    characteristic_fraction:
        Fraction of transitions boosted per language.
    seed:
        RNG seed or generator; fixing it fixes the *languages* (their
        transition matrices).  Sample generation takes its own seed.
    """

    def __init__(
        self,
        n_languages: int = 21,
        distinctiveness: float = 6.0,
        characteristic_fraction: float = 0.12,
        seed: int | np.random.Generator | None = 1234,
    ) -> None:
        n_languages = check_int("n_languages", n_languages, minimum=2)
        check_positive("distinctiveness", distinctiveness)
        if not 0.0 < characteristic_fraction <= 1.0:
            raise ValueError("characteristic_fraction must lie in (0, 1]")
        self.n_languages = n_languages
        self.alphabet = ALPHABET
        rng = as_rng(seed)
        n_symbols = len(self.alphabet)

        # Shared base chain: letter frequencies roughly Zipf-like, with
        # space acting as a frequent separator in every language.
        base = rng.gamma(shape=1.0, scale=1.0, size=(n_symbols, n_symbols))
        base[:, -1] += 2.0  # transitions into space
        base[-1, :] += rng.gamma(2.0, 1.0, size=n_symbols)  # word starts
        self._transitions = []
        for _ in range(n_languages):
            characteristic = rng.random((n_symbols, n_symbols)) < characteristic_fraction
            chain = base * np.where(characteristic, distinctiveness, 1.0)
            chain = chain / chain.sum(axis=1, keepdims=True)
            self._transitions.append(chain)

    def transition_matrix(self, language: int) -> np.ndarray:
        """The order-1 transition matrix of one language (rows sum to 1)."""
        return self._transitions[language].copy()

    def sample(
        self,
        language: int,
        length: int,
        seed: int | np.random.Generator | None = None,
    ) -> str:
        """Generate one text sample of ``length`` characters.

        The text, and the generator state it leaves, are bit-identical
        to drawing each character with
        ``rng.choice(n_symbols, p=chain[state])``.  ``choice`` inverts
        the normalised row CDF (``cumsum / last``) at one uniform
        double per call; here the CDFs are built once, the doubles come
        from one ``rng.random(length)`` draw and ``bisect_right``
        inverts them.  ``choice``'s probability-vector check runs once
        over the chain instead of once per character.
        """
        language = check_int("language", language, minimum=0)
        if language >= self.n_languages:
            raise ValueError(f"language must lie in [0, {self.n_languages})")
        length = check_int("length", length)
        rng = as_rng(seed)
        chain = self._transitions[language]
        if not (
            np.all(chain >= 0)
            and np.all(np.abs(chain.sum(axis=1) - 1.0) <= _PROBABILITY_ATOL)
        ):
            raise ValueError("transition rows must be probability vectors")
        cdf = np.cumsum(chain, axis=1)
        cdf /= cdf[:, -1:]
        cdf_rows = cdf.tolist()
        state = int(rng.integers(len(self.alphabet)))
        symbols = []
        for uniform in rng.random(length).tolist():
            state = bisect_right(cdf_rows[state], uniform)
            symbols.append(self.alphabet[state])
        return "".join(symbols)

    def dataset(
        self,
        samples_per_language: int,
        length: int,
        seed: int | np.random.Generator | None = None,
    ) -> tuple[list[str], np.ndarray]:
        """Labelled dataset: (texts, labels) across all languages."""
        samples_per_language = check_int("samples_per_language", samples_per_language)
        rng = as_rng(seed)
        texts: list[str] = []
        labels: list[int] = []
        for language in range(self.n_languages):
            for _ in range(samples_per_language):
                texts.append(self.sample(language, length, seed=rng))
                labels.append(language)
        return texts, np.asarray(labels)
