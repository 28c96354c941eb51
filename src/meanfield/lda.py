"""Latent Dirichlet allocation fit by coordinate ascent or stochastic steps.

Generative model, for ``K`` topics over a vocabulary of ``V`` terms:

    beta_k  ~ Dirichlet_V(eta)            topic-word distributions
    theta_d ~ Dirichlet_K(alpha)          per-document proportions
    z_dn    ~ Categorical(theta_d)        token topic assignment
    w_dn    ~ Categorical(beta_{z_dn})    observed token

The mean-field family keeps a Dirichlet ``lambda_k`` per topic, a
Dirichlet ``gamma_d`` per document, and a categorical ``phi`` row per
(document, distinct term) pair.  Tokens of the same term in a document
share their assignment factor, weighted by the term count; this is
equivalent to per-token factors because tokens are exchangeable.

A :class:`Corpus` is one CSR layout (``indptr``, ``ids``, ``cts``) with an
entry per such pair, and :class:`LdaState` keeps ``phi`` as one (entries, K)
array in the same order.  The local step (:func:`e_step`) runs all documents
of a corpus or minibatch at once, on padded blocks of documents of similar
length, in the exp-space form of Hoffman, Blei & Bach (2010): with ``t_d =
exp E[log theta_d]`` and ``b_w = exp E[log beta_w]``, ``gamma_d = alpha +
t_d * sum_w (c_dw / t_d . b_w) b_w``, and ``phi`` is formed only at the end.
One coordinate sweep runs that step at the current topics, then refreshes
every ``lambda_k`` from the assignment statistics.  Stochastic fits replace
the full statistics with a rescaled minibatch estimate blended in at a
Robbins-Monro step size.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .engine import VariationalModel, _frozen, _stochastic_fit, cavi_fit
from .errors import ConfigError, DataFormatError, DomainError, numbered_lines
from .expfam import (
    _check_prob_rows,
    _dirichlet_expected_log_rows,
    _dirichlet_kl,
    categorical_entropy,
    categorical_rows,
    digamma,
)

__all__ = [
    "INNER_TOL",
    "INNER_MAX_ITERS",
    "MAX_COUNT",
    "Corpus",
    "LdaConfig",
    "LdaState",
    "Lda",
    "read_uci",
    "write_uci",
    "simulate_corpus",
    "e_step",
    "lda_cavi_fit",
    "lda_svi_fit",
]

# Inner-loop stopping rule: mean absolute change in gamma_d below this, or
# the iteration cap, whichever first.  The cap bounds per-document work so
# a stochastic step costs O(cap * N_d * K) at worst.
INNER_TOL = 1e-4
INNER_MAX_ITERS = 100

# Both exp-space factors peak at 1, so a token's normalizer falls below this
# only when its document and its term favour different topics by hundreds of
# nats; such tokens are normalized in log space, keeping count/phinorm finite.
_NORM_FLOOR = 1e-100

# Terms listed per topic, most probable first, in a fit document.
_TOP_TERMS = 20


@dataclass(frozen=True)
class Corpus:
    """Bag-of-words corpus in CSR form, one entry per (document, distinct
    term) pair.

    Document ``d`` owns entries ``indptr[d]:indptr[d + 1]`` of ``ids``
    (0-based term ids, distinct within a document) and ``cts`` (the
    positive multiplicity of each); ``v`` is the vocabulary size.  The
    E-step, the ELBO and the topic statistics run over these flat arrays.
    """

    indptr: np.ndarray
    ids: np.ndarray
    cts: np.ndarray
    v: int

    def __post_init__(self):
        if int(self.v) != self.v or self.v < 1:
            raise DomainError("vocabulary size must be a positive integer")
        object.__setattr__(self, "v", int(self.v))
        for name, dtype in (("indptr", int), ("ids", int), ("cts", float)):
            object.__setattr__(self, name, _frozen(getattr(self, name), dtype))
        indptr, ids, cts = self.indptr, self.ids, self.cts
        if ids.ndim != 1 or cts.shape != ids.shape:
            raise DomainError("each document needs matching term/count vectors")
        if indptr.ndim != 1 or indptr[:1].tolist() != [0] or indptr[-1] != ids.size:
            raise DomainError("indptr must run from 0 to the number of entries")
        if np.any(np.diff(indptr) < 0):
            raise DomainError("indptr must never decrease")
        if ids.size and (ids.min() < 0 or ids.max() >= self.v):
            raise DomainError("term ids must lie in [0, vocabulary size)")
        # sorted by (document, term), a repeated pair sits next to its copy
        docs = _entry_docs(indptr)
        order = np.lexsort((ids, docs))
        docs, terms = docs[order], ids[order]
        if np.any((docs[1:] == docs[:-1]) & (terms[1:] == terms[:-1])):
            raise DomainError("term ids must be distinct within a document")
        if not np.all((cts >= 1.0) & (cts < np.inf)):
            raise DomainError("term counts must be finite and >= 1")

    def __len__(self):
        return self.indptr.size - 1

    @property
    def total_tokens(self):
        return float(self.cts.sum())

    def doc_lengths(self):
        return np.bincount(_entry_docs(self.indptr), self.cts, len(self))

    def subset(self, indices):
        docs = np.asarray(indices, dtype=int)
        starts, lens = self.indptr[docs], np.diff(self.indptr)[docs]
        indptr = np.concatenate([[0], np.cumsum(lens)])
        take = np.arange(indptr[-1]) + np.repeat(starts - indptr[:-1], lens)
        return Corpus(indptr, self.ids[take], self.cts[take], self.v)


def _entry_docs(indptr):
    """The document of each CSR entry."""
    return np.repeat(np.arange(indptr.size - 1), np.diff(indptr))


# Corpus stores counts as float64, which represents every integer up to
# 2**53 exactly; a larger count would be silently rounded.
MAX_COUNT = 2**53


def read_uci(path):
    """Read a UCI bag-of-words file into a :class:`Corpus`.

    Format: three header lines holding the document count ``D``, the
    vocabulary size ``V``, and the number of triples ``NNZ``, followed by
    ``NNZ`` lines of 1-indexed ``docID termID count``.  Blank lines are
    ignored; duplicate (docID, termID) pairs are summed.  A count (or a
    summed count) above :data:`MAX_COUNT` is rejected, since it would lose
    precision as a float.

    The file is read line by line as UTF-8 text.  Raises
    :class:`DataFormatError` carrying the 1-based line number of the first
    malformed line; a file that ends early reports the line after its last
    one.
    """

    def parse_int(lineno, token, what):
        try:
            return int(token)
        except ValueError:
            raise DataFormatError(f"expected integer {what}, got {token!r}", line=lineno)

    header = []
    lineno = 0
    with open(path, "r", encoding="utf-8") as handle:
        lines = numbered_lines(handle)
        for lineno, line in lines:
            tokens = line.split()
            if not tokens:
                continue
            what = ("document count", "vocabulary size", "triple count")[len(header)]
            if len(tokens) != 1:
                raise DataFormatError(f"expected a single {what}", line=lineno)
            value = parse_int(lineno, tokens[0], what)
            if value < 0:
                raise DataFormatError(f"{what} must be nonnegative", line=lineno)
            if len(header) == 1 and value < 1:
                raise DataFormatError("vocabulary size must be >= 1", line=lineno)
            header.append(value)
            if len(header) == 3:
                break
        else:
            raise DataFormatError(
                "expected three header lines (documents, vocabulary, triples)",
                line=lineno + 1,
            )

        num_docs, vocab, nnz = header
        cells = {}
        found = 0
        for lineno, line in lines:
            tokens = line.split()
            if not tokens:
                continue
            if found == nnz:
                raise DataFormatError("more triples than declared", line=lineno)
            found += 1
            if len(tokens) != 3:
                raise DataFormatError("expected `docID termID count`", line=lineno)
            doc = parse_int(lineno, tokens[0], "document id")
            term = parse_int(lineno, tokens[1], "term id")
            count = parse_int(lineno, tokens[2], "count")
            if not (1 <= doc <= num_docs):
                raise DataFormatError(
                    f"document id {doc} outside 1..{num_docs}", line=lineno
                )
            if not (1 <= term <= vocab):
                raise DataFormatError(f"term id {term} outside 1..{vocab}", line=lineno)
            if count < 1:
                raise DataFormatError("count must be >= 1", line=lineno)
            key = (doc - 1, term - 1)
            total = cells.get(key, 0) + count
            if total > MAX_COUNT:
                raise DataFormatError(
                    "count exceeds 2**53, the largest exact float count", line=lineno
                )
            cells[key] = total

    if found < nnz:
        raise DataFormatError(f"expected {nnz} triples, found {found}", line=lineno + 1)

    keys = sorted(cells)
    docs, terms = np.array(keys, dtype=int).reshape(-1, 2).T
    indptr = np.concatenate([[0], np.cumsum(np.bincount(docs, minlength=num_docs))])
    cts = np.array([cells[key] for key in keys], dtype=float)
    return Corpus(indptr, terms, cts, vocab)


def write_uci(corpus, path):
    """Write a :class:`Corpus` as UCI bag-of-words text (integer counts)."""
    if np.any(corpus.cts != np.floor(corpus.cts)):
        raise DomainError("file format stores integer counts only")
    docs = _entry_docs(corpus.indptr) + 1
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{len(corpus)}\n{corpus.v}\n{corpus.ids.size}\n")
        handle.writelines(
            f"{d} {t + 1} {int(c)}\n" for d, t, c in zip(docs, corpus.ids, corpus.cts)
        )


def simulate_corpus(
    k,
    num_docs=100,
    vocab_size=20,
    doc_length=50,
    seed=0,
    disjoint=False,
    alpha=0.5,
    eta=0.1,
):
    """Draw a corpus from the generative process.

    With ``disjoint=True`` the topics are constructed rather than drawn:
    topic ``j`` is uniform over its slice of a partition of the
    vocabulary, which makes recovery checkable without label alignment
    ambiguity beyond a permutation.

    Returns ``(corpus, truth)`` where ``truth`` holds the topic-word
    matrix and per-document proportions.
    """
    if k < 1 or num_docs < 1 or vocab_size < k or doc_length < 1:
        raise DomainError("need k >= 1, docs >= 1, vocab >= k, doc length >= 1")
    for name, prior in (("alpha", alpha), ("eta", eta)):
        if not (0.0 < prior < math.inf):
            raise ConfigError(name, "must be finite and > 0")
    rng = np.random.default_rng(seed)
    if disjoint:
        topics = np.zeros((k, vocab_size))
        for j, block in enumerate(np.array_split(np.arange(vocab_size), k)):
            topics[j, block] = 1.0 / block.size
    else:
        topics = rng.dirichlet(np.full(vocab_size, eta), size=k)
    proportions = rng.dirichlet(np.full(k, alpha), size=num_docs)

    terms, counts = [], []
    for d in range(num_docs):
        per_topic = rng.multinomial(doc_length, proportions[d])
        word_counts = np.zeros(vocab_size, dtype=int)
        for j in range(k):
            if per_topic[j]:
                word_counts += rng.multinomial(per_topic[j], topics[j])
        terms.append(np.flatnonzero(word_counts))
        counts.append(word_counts[terms[-1]])
    indptr = np.cumsum([0, *(t.size for t in terms)])
    corpus = Corpus(indptr, np.concatenate(terms), np.concatenate(counts), vocab_size)
    truth = {"topics": topics, "doc_topic": proportions}
    return corpus, truth


@dataclass(frozen=True)
class LdaConfig:
    """Topic count and Dirichlet priors.

    ``alpha`` may be a scalar (symmetric proportions prior, broadcast to
    length ``k``) or a length-``k`` vector; ``eta`` is the scalar
    symmetric topic prior.
    """

    k: int
    eta: float = 0.1
    alpha: object = 0.1

    def __post_init__(self):
        if int(self.k) != self.k or self.k < 1:
            raise ConfigError("k", "must be an integer >= 1")
        object.__setattr__(self, "k", int(self.k))
        if not (self.eta > 0.0) or not math.isfinite(self.eta):
            raise ConfigError("eta", "must be finite and > 0")
        alpha = np.asarray(self.alpha, dtype=float)
        if alpha.ndim == 0:
            alpha = np.full(self.k, float(alpha))
        if alpha.shape != (self.k,):
            raise ConfigError("alpha", "must be a scalar or length-k vector")
        if not np.all(np.isfinite(alpha)) or np.any(alpha <= 0.0):
            raise ConfigError("alpha", "entries must be finite and > 0")
        object.__setattr__(self, "alpha", _frozen(alpha))


@dataclass(frozen=True)
class LdaState:
    """Variational parameters: topics ``lam`` (K, V), proportions
    ``gamma`` (D, K), and the assignment rows ``phi`` (entries, K), one per
    CSR entry of the corpus the state belongs to, in corpus order.

    ``estep_updates`` is each document's update count in the E-step that
    produced ``gamma`` (``None`` for a state no E-step produced); it is a
    diagnostic, not a variational parameter.
    """

    lam: np.ndarray
    gamma: np.ndarray
    phi: np.ndarray
    estep_updates: np.ndarray = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        for name in ("lam", "gamma", "phi"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        if self.lam.ndim != 2 or self.gamma.ndim != 2:
            raise DomainError("lam and gamma must be matrices")
        k = self.lam.shape[0]
        if self.gamma.shape[1] != k:
            raise DomainError("gamma must have one column per topic")
        if np.any(self.lam <= 0.0) or np.any(self.gamma <= 0.0):
            raise DomainError("Dirichlet parameters must be > 0")
        if self.phi.ndim != 2 or self.phi.shape[1] != k:
            raise DomainError("phi rows must have one column per topic")
        _check_prob_rows(self.phi, 1e-9, "phi rows must be probability vectors")


def _check_matches(state, corpus):
    """Raise unless ``state`` has one ``phi`` row per CSR entry and one
    ``gamma`` row per document of ``corpus``."""
    if state.phi.shape[0] != corpus.ids.size or state.gamma.shape[0] != len(corpus):
        raise DomainError("state does not match the corpus entries and documents")


def _term_stats(corpus, phi):
    """Expected topic-term counts ``sum_d count_dw phi_dw`` as a (K, V) array."""
    k = phi.shape[1]
    slots = (corpus.ids[:, None] * k + np.arange(k)).ravel()
    flat = np.bincount(slots, (phi * corpus.cts[:, None]).ravel(), corpus.v * k)
    return flat.reshape(corpus.v, k).T


def _phi_rows(log_theta_tok, beta_tok, elog_beta, ids):
    """Assignment rows (T, K) for CSR entries with term ids ``ids``, from
    each entry's shifted ``E[log theta_d]`` row and ``exp E[log beta]``
    row; entries whose exp-space normalizer underflows use log space."""
    phi = np.exp(log_theta_tok) * beta_tok
    norm = np.einsum("tk->t", phi)
    lost = norm < _NORM_FLOOR
    phi /= np.where(lost, 1.0, norm)[:, None]
    if lost.any():
        phi[lost] = categorical_rows(log_theta_tok[lost] + elog_beta[:, ids[lost]].T)[0]
    return phi


def e_step(corpus, elog_beta, gamma, alpha):
    """Local step for every document of ``corpus`` at fixed topics.

    From ``gamma`` (D, K), each document updates until the mean absolute
    change of ``gamma_d`` falls below :data:`INNER_TOL` (checked from the
    second update on) or after :data:`INNER_MAX_ITERS` updates, then leaves
    the active rows and is written back.  ``E[log theta]`` and ``E[log beta]``
    are shifted to peak at 0 over topics.  A pass is one ``digamma`` call
    and two batched products per padded block.  Returns ``(gamma, phi,
    iterations)``: the (entries, K) rows of ``phi`` behind ``gamma`` and
    each document's update count (0 when empty).
    """
    lens = np.diff(corpus.indptr)
    gamma = np.array(gamma, dtype=float)
    gamma[lens == 0] = alpha
    iterations = np.zeros(len(lens), dtype=int)
    log_theta = np.zeros_like(gamma)
    beta_all = np.exp(elog_beta - elog_beta.max(axis=0)).T[corpus.ids]

    # Nonempty documents longest first, in buckets that stay at least half full;
    # padding slots get beta rows of ones (normalizer >= 1) and count 0.
    docs = np.argsort(-lens, kind="stable")[: np.count_nonzero(lens)]
    sizes, blocks, first = lens[docs], [], 0
    while first < docs.size:
        stop = first + np.count_nonzero(np.cumsum(2 * sizes[first:] - sizes[first]) >= 0)
        slot = np.arange(sizes[first])
        pad = slot >= sizes[first:stop, None]
        entries = np.where(pad, 0, corpus.indptr[docs[first:stop], None] + slot)
        beta = beta_all[entries]
        beta[pad] = 1.0
        blocks.append((beta, np.where(pad, 0.0, corpus.cts[entries])[:, None], entries))
        first = stop
    act = gamma[docs, None, :]  # the active documents' rows, (n, 1, K)
    for it in range(1, INNER_MAX_ITERS + 1):
        if docs.size == 0:
            break
        lt = digamma(act)
        lt -= np.maximum.reduce(lt, axis=2, keepdims=True)
        theta, new, spans, stop = np.exp(lt), np.empty_like(act), [], 0
        for beta, cts, entries in blocks:
            rows, stop = slice(stop, stop + len(cts)), stop + len(cts)
            spans.append(rows)
            norm = np.matmul(beta, theta[rows].transpose(0, 2, 1)).reshape(cts.shape)
            lost = norm < _NORM_FLOOR
            norm[lost] = np.inf
            np.multiply(theta[rows], (cts / norm) @ beta, out=new[rows])
            if np.count_nonzero(lost):
                doc, _, slot = np.nonzero(lost)
                e = entries[doc, slot]
                phi = _phi_rows(lt[rows][doc, 0], beta_all[e], elog_beta, corpus.ids[e])
                np.add.at(new[rows, 0], doc, corpus.cts[e, None] * phi)
        new += alpha
        done = np.add.reduce(np.abs(new - act), axis=2)[:, 0] / act.shape[2] < INNER_TOL
        act = new
        if it == INNER_MAX_ITERS:
            done[:] = True
        if it > 1 and np.count_nonzero(done):
            out, keep = docs[done], ~done
            gamma[out], log_theta[out], iterations[out] = act[done, 0], lt[done, 0], it
            blocks = [tuple(a[keep[r]] for a in b)
                      for b, r in zip(blocks, spans) if np.count_nonzero(keep[r])]
            docs, act = docs[keep], act[keep]

    log_theta = np.repeat(log_theta, lens, axis=0)
    return gamma, _phi_rows(log_theta, beta_all, elog_beta, corpus.ids), iterations


def _physical_memory():
    """Bytes of physical memory, or the intp maximum where the host cannot say."""
    try:
        total = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        total = -1
    return total if total > 0 else np.iinfo(np.intp).max


def _fresh_gamma(corpus, config):
    """Cold-start proportions ``alpha + N_d / K`` for every document."""
    return config.alpha[None, :] + (corpus.doc_lengths() / config.k)[:, None]


def _fold_in(corpus, lam, config):
    """E-step for every document of ``corpus`` from a cold start at ``lam``."""
    elog_beta = _dirichlet_expected_log_rows(lam)
    return e_step(corpus, elog_beta, _fresh_gamma(corpus, config), config.alpha)


def lda_elbo(state, corpus, config):
    """Evidence lower bound, all constants kept.

    Token terms (likelihood, assignment cross-entropy, assignment entropy)
    sum over the CSR entries; the theta and beta blocks enter as exact
    Dirichlet KL divergences to their priors, from the same ``E[log]``.
    """
    _check_matches(state, corpus)
    elog_beta = _dirichlet_expected_log_rows(state.lam)
    elog_theta = _dirichlet_expected_log_rows(state.gamma)
    scores = (
        np.repeat(elog_theta, np.diff(corpus.indptr), axis=0)
        + elog_beta[:, corpus.ids].T
    )
    total = float((corpus.cts[:, None] * state.phi * scores).sum())
    total += float(corpus.cts @ categorical_entropy(state.phi))
    total -= float(_dirichlet_kl(state.gamma, config.alpha, elog_theta).sum())
    eta = np.full(corpus.v, config.eta)
    total -= float(_dirichlet_kl(state.lam, eta, elog_beta).sum())
    return total


class Lda(VariationalModel):
    """Engine adapter; the data container is a :class:`Corpus`."""

    name = "lda"

    def take(self, data, indices):
        return data.subset(indices)

    def init_state(self, data, strategy, rng):
        """Topics start at the prior plus a small positive perturbation,
        Uniform(0,1) scaled by 0.01 * tokens / (K V) per entry; a fully
        symmetric start is a saddle point with all topics identical.  The
        perturbation scale is data-calibrated by construction, so both
        init strategies coincide.  A (K, V) array that numpy cannot index or
        that exceeds the host's physical memory is refused before it is
        allocated, and so is one whose allocation fails."""
        del strategy
        k, v = self.config.k, data.v
        too_large = DomainError(
            f"vocabulary size {v} too large for a dense topic matrix"
        )
        if k * v > min(np.iinfo(np.intp).max, _physical_memory()) // 8:
            raise too_large
        scale = 0.01 * data.total_tokens / (k * v)
        try:
            lam = self.config.eta + scale * rng.uniform(size=(k, v))
        except MemoryError:
            raise too_large from None
        phi = np.full((data.ids.size, k), 1.0 / k)
        return LdaState(lam, _fresh_gamma(data, self.config), phi)

    def sweep(self, state, data):
        config = self.config
        elog_beta = _dirichlet_expected_log_rows(state.lam)
        gamma, phi, updates = e_step(data, elog_beta, state.gamma, config.alpha)
        lam = config.eta + _term_stats(data, phi)
        return LdaState(lam, gamma, phi, updates)

    def elbo(self, state, data):
        return lda_elbo(state, data, self.config)

    def _entry_log_probs(self, state, corpus):
        """Log probability of each CSR entry's term under the mean topic
        mixture ``sum_k E[theta_k] E[beta_kv]``, every document folded in
        against frozen topics."""
        gamma, _, _ = _fold_in(corpus, state.lam, self.config)
        theta = gamma / gamma.sum(axis=1, keepdims=True)
        beta_mean = state.lam / state.lam.sum(axis=1, keepdims=True)
        token_probs = np.einsum(
            "tk->t",
            np.repeat(theta, np.diff(corpus.indptr), axis=0) * beta_mean[:, corpus.ids].T,
        )
        return np.log(token_probs)

    def log_predictive(self, state, data):
        """Total log predictive of each held-out document, as a (D,) array."""
        weighted = data.cts * self._entry_log_probs(state, data)
        return np.bincount(_entry_docs(data.indptr), weighted, len(data))

    def heldout_log_predictive(self, state, heldout):
        """Per-word average over the held-out documents (token-weighted)."""
        if len(heldout) == 0:
            raise DomainError("held-out set is empty")
        tokens = heldout.total_tokens
        if tokens == 0.0:
            raise DomainError("held-out documents contain no tokens")
        return float(heldout.cts @ self._entry_log_probs(state, heldout)) / tokens

    def export_state(self, state):
        beta_mean = state.lam / state.lam.sum(axis=1, keepdims=True)
        top_terms = []
        top_probs = []
        for row in beta_mean:
            order = np.argsort(row)[::-1][:_TOP_TERMS]
            top_terms.append(order.tolist())
            top_probs.append(row[order].tolist())
        return {"top_terms": top_terms, "top_term_probs": top_probs}


def _estep_summary(state):
    """How the E-step behind ``state`` ended, as fit metadata.

    ``estep_cap_hits`` counts the documents that reached the
    :data:`INNER_MAX_ITERS` update cap, where :data:`INNER_TOL` no longer
    stops them; ``estep_max_updates`` is the largest per-document update
    count.
    """
    updates = state.estep_updates
    return {
        "estep_cap_hits": int(np.count_nonzero(updates >= INNER_MAX_ITERS)),
        "estep_max_updates": int(updates.max(initial=0)),
    }


def lda_cavi_fit(corpus, config, fit_config):
    """Coordinate-ascent fit; returns a :class:`FitReport`.

    The metadata carries ``estep_cap_hits`` and ``estep_max_updates`` of
    the final sweep's E-step.
    """
    if len(corpus) == 0:
        raise DomainError("corpus has no documents")
    report = cavi_fit(Lda(config), corpus, fit_config)
    report.metadata.update(_estep_summary(report.model_state))
    return report


def lda_svi_fit(corpus, config, schedule, fit_config, batch_size=1):
    """Stochastic fit: one document minibatch per step.

    Each step folds the sampled documents in at the current topics
    (fresh gamma start, inner loop to convergence), forms the rescaled
    full-corpus estimate ``lam_hat = eta + (D / B) * batch statistics``,
    and blends ``lam = (1 - eps_t) lam + eps_t lam_hat``.  Dirichlet
    natural parameters are an affine shift of lam, so blending lam
    directly is the natural-coordinate step.

    The ELBO is recorded every ``elbo_every`` steps after a full local
    pass at the current topics, the last of which is the report's state;
    its ``estep_cap_hits`` and ``estep_max_updates`` go into the metadata.
    Deterministic per seed: the initial topics are drawn before the first
    minibatch.
    """
    n = len(corpus)
    model = Lda(config)

    def start(rng):
        return np.array(model.init_state(corpus, "prior", rng).lam)

    def target(lam, batch):
        batch = corpus.subset(batch)
        _, phi, _ = _fold_in(batch, lam, config)
        return config.eta + (n / batch_size) * _term_stats(batch, phi)

    def score(lam):
        gamma, phi, updates = _fold_in(corpus, lam, config)
        snapshot = LdaState(lam, gamma, phi, updates)
        return lda_elbo(snapshot, corpus, config), snapshot

    report = _stochastic_fit(n, batch_size, schedule, fit_config, start, target, score)
    report.metadata.update(model.metadata())
    report.metadata.update(_estep_summary(report.model_state))
    return report
