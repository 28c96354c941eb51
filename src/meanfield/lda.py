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

The local step (:func:`e_step`) runs all documents of a corpus or minibatch
at once over its CSR layout, in the exp-space form of Hoffman, Blei & Bach
(2010): with ``t_d = exp E[log theta_d]`` and ``b_w = exp E[log beta_w]``,
``gamma_d = alpha + t_d * sum_w (c_dw / t_d . b_w) b_w``, and ``phi`` is
formed only at the end, where a caller needs it.  One coordinate sweep runs
that step at the current topics, then refreshes every ``lambda_k`` from the
assignment statistics.  Stochastic fits replace the full statistics with a
rescaled minibatch estimate blended in at a Robbins-Monro step size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .condconj import _stochastic_fit
from .engine import MeanFieldState, VariationalModel, cavi_fit
from .errors import ConfigError, DataFormatError, DomainError, numbered_lines
from .expfam import (
    ExpFamParam,
    _dirichlet_expected_log_rows,
    categorical_entropy,
    digamma,
    dirichlet_kl,
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
    "update_phi",
    "update_gamma",
    "update_lambda",
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


def _frozen(a, dtype=float):
    a = np.array(a, dtype=dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Corpus:
    """Bag-of-words corpus: per document, distinct term ids and counts.

    ``docs`` is a tuple of ``(terms, counts)`` pairs where ``terms`` holds
    sorted distinct 0-based term ids and ``counts`` the positive
    multiplicity of each.  ``v`` is the vocabulary size.

    Construction lays the corpus out once in CSR form, one entry per
    (document, distinct term) pair: document ``d`` owns entries
    ``indptr[d]:indptr[d + 1]`` of ``ids`` (term ids) and ``cts`` (counts),
    and ``docs`` holds read-only views of them.  The E-step, the ELBO and
    the topic statistics run over these flat arrays.
    """

    docs: tuple
    v: int

    def __post_init__(self):
        if int(self.v) != self.v or self.v < 1:
            raise DomainError("vocabulary size must be a positive integer")
        object.__setattr__(self, "v", int(self.v))
        lens = [np.size(terms) for terms, _ in self.docs]
        if any(np.ndim(t) != 1 or np.shape(c) != np.shape(t) for t, c in self.docs):
            raise DomainError("each document needs matching term/count vectors")
        ids = _frozen(np.concatenate([[], *(t for t, _ in self.docs)]), int)
        cts = _frozen(np.concatenate([[], *(c for _, c in self.docs)]))
        if ids.size and (ids.min() < 0 or ids.max() >= self.v):
            raise DomainError("term ids must lie in [0, vocabulary size)")
        rows = np.repeat(np.arange(len(lens)), lens)
        if np.unique(rows * self.v + ids).size != ids.size:
            raise DomainError("term ids must be distinct within a document")
        if not np.all((cts >= 1.0) & (cts < np.inf)):
            raise DomainError("term counts must be finite and >= 1")
        object.__setattr__(self, "indptr", _frozen(np.cumsum([0, *lens]), int))
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "cts", cts)
        object.__setattr__(self, "docs", tuple(zip(self.split(ids), self.split(cts))))

    @property
    def d(self):
        return len(self.docs)

    def __len__(self):
        return len(self.docs)

    @property
    def total_tokens(self):
        return float(self.cts.sum())

    def doc_lengths(self):
        return np.array([counts.sum() for _, counts in self.docs])

    def subset(self, indices):
        return Corpus(tuple(self.docs[int(i)] for i in indices), self.v)

    def split(self, rows):
        """Per-document views of an array with one row per CSR entry."""
        return tuple(rows[a:b] for a, b in zip(self.indptr[:-1], self.indptr[1:]))


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
        cells = [dict() for _ in range(num_docs)]
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
            cell = cells[doc - 1]
            total = cell.get(term - 1, 0) + count
            if total > MAX_COUNT:
                raise DataFormatError(
                    "count exceeds 2**53, the largest exact float count", line=lineno
                )
            cell[term - 1] = total

    if found < nnz:
        raise DataFormatError(f"expected {nnz} triples, found {found}", line=lineno + 1)

    docs = []
    for cell in cells:
        terms = np.array(sorted(cell), dtype=int)
        counts = np.array([cell[t] for t in sorted(cell)], dtype=float)
        docs.append((terms, counts))
    return Corpus(tuple(docs), vocab)


def write_uci(corpus, path):
    """Write a :class:`Corpus` as UCI bag-of-words text (integer counts)."""
    if np.any(corpus.cts != np.floor(corpus.cts)):
        raise DomainError("file format stores integer counts only")
    docs = np.repeat(np.arange(1, len(corpus) + 1), np.diff(corpus.indptr))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{len(corpus)}\n{corpus.v}\n{corpus.ids.size}\n")
        handle.writelines(
            f"{d} {t + 1} {int(c)}\n" for d, t, c in zip(docs, corpus.ids, corpus.cts)
        )


def simulate_corpus(
    k,
    num_docs,
    vocab_size,
    doc_length,
    seed,
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
    rng = np.random.default_rng(seed)
    if disjoint:
        topics = np.zeros((k, vocab_size))
        for j, block in enumerate(np.array_split(np.arange(vocab_size), k)):
            topics[j, block] = 1.0 / block.size
    else:
        topics = rng.dirichlet(np.full(vocab_size, eta), size=k)
    proportions = rng.dirichlet(np.full(k, alpha), size=num_docs)

    docs = []
    for d in range(num_docs):
        per_topic = rng.multinomial(doc_length, proportions[d])
        word_counts = np.zeros(vocab_size, dtype=int)
        for j in range(k):
            if per_topic[j]:
                word_counts += rng.multinomial(per_topic[j], topics[j])
        terms = np.flatnonzero(word_counts)
        docs.append((terms, word_counts[terms].astype(float)))
    corpus = Corpus(tuple(docs), vocab_size)
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
    ``gamma`` (D, K), and one assignment matrix per document in ``phi``
    (rows are distinct terms in corpus order).

    ``estep_updates`` is each document's update count in the E-step that
    produced ``gamma`` (``None`` for a state no E-step produced); it is a
    diagnostic, not a variational parameter.
    """

    lam: np.ndarray
    gamma: np.ndarray
    phi: tuple
    estep_updates: np.ndarray = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "lam", _frozen(self.lam))
        object.__setattr__(self, "gamma", _frozen(self.gamma))
        object.__setattr__(self, "phi", tuple(_frozen(p) for p in self.phi))
        if self.lam.ndim != 2 or self.gamma.ndim != 2:
            raise DomainError("lam and gamma must be matrices")
        k = self.lam.shape[0]
        if self.gamma.shape != (len(self.phi), k):
            raise DomainError("gamma must have one row per document")
        if np.any(self.lam <= 0.0) or np.any(self.gamma <= 0.0):
            raise DomainError("Dirichlet parameters must be > 0")
        for p in self.phi:
            if p.ndim != 2 or p.shape[1] != k:
                raise DomainError("phi rows must have one column per topic")
        flat = _stacked_phi(self.phi, k)
        if flat.size and (
            np.any(flat < 0.0)
            or not np.allclose(flat.sum(axis=1), 1.0, rtol=0.0, atol=1e-9)
        ):
            raise DomainError("phi rows must be probability vectors")


def _stacked_phi(phis, k):
    """Per-document assignment matrices as one (entries, K) array."""
    return np.concatenate(phis) if phis else np.zeros((0, k))


def _term_stats(corpus, phi):
    """Expected topic-term counts ``sum_d count_dw phi_dw`` as a (K, V) array."""
    k = phi.shape[1]
    slots = (corpus.ids[:, None] * k + np.arange(k)).ravel()
    flat = np.bincount(slots, (phi * corpus.cts[:, None]).ravel(), corpus.v * k)
    return flat.reshape(corpus.v, k).T


def _shifted(logits):
    """Logits shifted so that every row peaks at 0."""
    return logits - logits.max(axis=1, keepdims=True)


def _phi_rows(log_theta_tok, beta_tok, elog_beta, ids):
    """Assignment rows (T, K) for CSR entries with term ids ``ids``, from
    each entry's shifted ``E[log theta_d]`` row and ``exp E[log beta]``
    column; entries whose exp-space normalizer underflows use log space."""
    phi = np.exp(log_theta_tok) * beta_tok
    norm = phi.sum(axis=1)
    lost = norm < _NORM_FLOOR
    phi /= np.where(lost, 1.0, norm)[:, None]
    if lost.any():
        p = np.exp(_shifted(log_theta_tok[lost] + elog_beta[:, ids[lost]].T))
        phi[lost] = p / p.sum(axis=1, keepdims=True)
    return phi


def e_step(corpus, elog_beta, gamma, alpha, want_phi=True):
    """Local step for every document of ``corpus`` at fixed topics.

    From ``gamma`` (D, K), each document updates until the mean absolute
    change of ``gamma_d`` falls below :data:`INNER_TOL` (checked from the
    second update on) or after :data:`INNER_MAX_ITERS` updates, then leaves
    the active rows.  ``E[log theta]`` per document and ``E[log beta]`` per
    term are shifted to peak at 0 over topics before exponentiating.
    Returns ``(gamma, phi, iterations)``: the (entries, K) assignment rows
    behind ``gamma`` (``None`` unless ``want_phi``) and each document's
    update count (0 when empty).
    """
    lens = np.diff(corpus.indptr)
    gamma = np.array(gamma, dtype=float)
    gamma[lens == 0] = alpha
    iterations = np.zeros(len(lens), dtype=int)
    log_theta = np.zeros_like(gamma)
    beta_all = np.exp(_shifted(elog_beta[:, corpus.ids].T))

    act = np.flatnonzero(lens)
    ids, cts, beta, act_lens = corpus.ids, corpus.cts, beta_all, lens[act]
    for it in range(1, INNER_MAX_ITERS + 1):
        if act.size == 0:
            break
        lt = _shifted(digamma(gamma[act]))
        log_theta[act] = lt
        theta = np.exp(lt)
        norm = (np.repeat(theta, act_lens, axis=0) * beta).sum(axis=1)
        lost = norm < _NORM_FLOOR
        weights = cts / np.where(lost, np.inf, norm)
        starts = np.cumsum(act_lens) - act_lens
        new = alpha + theta * np.add.reduceat(beta * weights[:, None], starts, axis=0)
        if lost.any():
            rows = np.repeat(np.arange(act.size), act_lens)[lost]
            phi = _phi_rows(lt[rows], beta[lost], elog_beta, ids[lost])
            np.add.at(new, rows, cts[lost, None] * phi)
        done = np.abs(new - gamma[act]).mean(axis=1) < INNER_TOL
        gamma[act] = new
        iterations[act] = it
        if it > 1 and done.any():
            keep = np.repeat(~done, act_lens)
            act, act_lens = act[~done], act_lens[~done]
            ids, cts, beta = ids[keep], cts[keep], beta[keep]

    if want_phi:
        log_theta = np.repeat(log_theta, lens, axis=0)
        return gamma, _phi_rows(log_theta, beta_all, elog_beta, corpus.ids), iterations
    return gamma, None, iterations


def _fresh_gamma(corpus, config):
    """Cold-start proportions ``alpha + N_d / K`` for every document."""
    return config.alpha[None, :] + (corpus.doc_lengths() / config.k)[:, None]


def _fold_in(corpus, lam, config, want_phi=True):
    """E-step for every document of ``corpus`` from a cold start at ``lam``."""
    elog_beta = _dirichlet_expected_log_rows(lam)
    return e_step(
        corpus, elog_beta, _fresh_gamma(corpus, config), config.alpha, want_phi
    )


def update_phi(state, d, corpus, config):
    """Assignment rows for document ``d`` at the current gamma and lam.

    Row ``t`` for term ``w`` is proportional to
    ``exp(psi(gamma_dk) + psi(lam_kw) - psi(sum_v lam_kv))`` over topics.
    """
    del config
    terms, _ = corpus.docs[d]
    elog_beta = _dirichlet_expected_log_rows(state.lam)
    log_theta = _shifted(digamma(state.gamma[d : d + 1]))
    beta = np.exp(_shifted(elog_beta[:, terms].T))
    return _phi_rows(np.repeat(log_theta, terms.size, axis=0), beta, elog_beta, terms)


def update_gamma(state, d, corpus, config):
    """Proportion parameters for document ``d`` from its current phi:
    ``gamma_d = alpha + sum over distinct terms of count * phi row``."""
    _, counts = corpus.docs[d]
    return config.alpha + state.phi[d].T @ counts


def update_lambda(state, corpus, config):
    """Topic parameters from all assignment rows:
    ``lam_kv = eta + sum_d count_{dv} phi_{dv}^k``."""
    return config.eta + _term_stats(corpus, _stacked_phi(state.phi, config.k))


def lda_elbo(state, corpus, config):
    """Evidence lower bound, all constants kept.

    Token terms (likelihood, assignment cross-entropy, assignment entropy)
    sum over the CSR entries; the theta and beta blocks enter as exact
    Dirichlet KL divergences to their priors.
    """
    elog_beta = _dirichlet_expected_log_rows(state.lam)
    elog_theta = _dirichlet_expected_log_rows(state.gamma)
    phi = _stacked_phi(state.phi, config.k)
    scores = (
        np.repeat(elog_theta, np.diff(corpus.indptr), axis=0)
        + elog_beta[:, corpus.ids].T
    )
    total = float((corpus.cts[:, None] * phi * scores).sum())
    total += float(corpus.cts @ categorical_entropy(phi))
    total -= float(dirichlet_kl(state.gamma, config.alpha).sum())
    total -= float(dirichlet_kl(state.lam, np.full(corpus.v, config.eta)).sum())
    return total


class Lda(VariationalModel):
    """Engine adapter; the data container is a :class:`Corpus`."""

    name = "lda"

    def __init__(self, config):
        self.config = config

    def take(self, data, indices):
        return data.subset(indices)

    def init_state(self, data, strategy, rng):
        """Topics start at the prior plus a small positive perturbation,
        Uniform(0,1) scaled by 0.01 * tokens / (K V) per entry; a fully
        symmetric start is a saddle point with all topics identical.  The
        perturbation scale is data-calibrated by construction, so both
        init strategies coincide."""
        del strategy
        k, v = self.config.k, data.v
        scale = 0.01 * data.total_tokens / (k * v)
        lam = self.config.eta + scale * rng.uniform(size=(k, v))
        phi = data.split(np.full((data.ids.size, k), 1.0 / k))
        return LdaState(lam, _fresh_gamma(data, self.config), phi)

    def sweep(self, state, data):
        config = self.config
        elog_beta = _dirichlet_expected_log_rows(state.lam)
        gamma, phi, updates = e_step(data, elog_beta, state.gamma, config.alpha)
        lam = config.eta + _term_stats(data, phi)
        return LdaState(lam, gamma, data.split(phi), updates)

    def elbo(self, state, data):
        return lda_elbo(state, data, self.config)

    def _log_predictive_total(self, state, corpus):
        """Fold every document in against frozen topics, then score each
        token under the mean topic mixture ``sum_k E[theta_k] E[beta_kv]``."""
        gamma, _, _ = _fold_in(corpus, state.lam, self.config, want_phi=False)
        theta = gamma / gamma.sum(axis=1, keepdims=True)
        beta_mean = state.lam / state.lam.sum(axis=1, keepdims=True)
        token_probs = (
            np.repeat(theta, np.diff(corpus.indptr), axis=0)
            * beta_mean[:, corpus.ids].T
        ).sum(axis=1)
        return float(corpus.cts @ np.log(token_probs))

    def log_predictive(self, state, point):
        """Total log predictive of one held-out document ``(terms, counts)``."""
        return self._log_predictive_total(state, Corpus((point,), state.lam.shape[1]))

    def heldout_log_predictive(self, state, heldout):
        """Per-word average over the held-out documents (token-weighted)."""
        if len(heldout) == 0:
            raise DomainError("held-out set is empty")
        tokens = heldout.total_tokens
        if tokens == 0.0:
            raise DomainError("held-out documents contain no tokens")
        return self._log_predictive_total(state, heldout) / tokens

    def export_state(self, state):
        factors = []
        labels = []
        for j in range(state.lam.shape[0]):
            factors.append(ExpFamParam.dirichlet(state.lam[j]))
            labels.append(f"beta[{j}]")
        for d in range(state.gamma.shape[0]):
            factors.append(ExpFamParam.dirichlet(state.gamma[d]))
            labels.append(f"theta[{d}]")
        for d, phi in enumerate(state.phi):
            for t in range(phi.shape[0]):
                factors.append(ExpFamParam.categorical(phi[t]))
                labels.append(f"z[{d},{t}]")
        return MeanFieldState(tuple(factors), tuple(labels))

    def metadata(self):
        return {
            "k": self.config.k,
            "eta": self.config.eta,
            "alpha": self.config.alpha.tolist(),
        }

    def summary_dict(self, state, top=20):
        beta_mean = state.lam / state.lam.sum(axis=1, keepdims=True)
        top_terms = []
        top_probs = []
        for row in beta_mean:
            order = np.argsort(row)[::-1][: min(top, row.size)]
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
        snapshot = LdaState(lam, gamma, corpus.split(phi), updates)
        return lda_elbo(snapshot, corpus, config), snapshot

    report = _stochastic_fit(n, batch_size, schedule, fit_config, start, target, score)
    report.metadata.update(model.metadata())
    report.metadata.update(_estep_summary(report.model_state))
    return report
