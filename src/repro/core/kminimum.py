"""K-minimum subsequence machinery (system S3; Definitions 2.3, 2.5).

The DISC strategy never enumerates candidate sequences.  Instead each
customer sequence is represented by its *k-minimum subsequence* — the
smallest of its k-subsequences under the comparative order — and, after a
candidate has been processed, by its *conditional* k-minimum subsequence:
the smallest k-subsequence (strictly) above a moving lower bound.

Like the paper we restrict the family of k-subsequences considered to
those whose (k-1)-prefix is a *frequent* (k-1)-sequence (the apriori
pruning of Figures 5 and 6): a frequent k-sequence always has a frequent
(k-1)-prefix, so the restriction cannot lose results.  The frequent
(k-1)-sequences are supplied as an ascending *(k-1)-sorted list* whose
nodes precompute everything a match needs; apriori pointers are indices
into it.

One deliberate deviation from the paper's pseudocode: Figure 6 extends
only the *leftmost* match of the chosen (k-1)-sequence F.  Without a
lower bound that is provably optimal, but with one it is not — for
S = <(a)(a, b)>, F = <(a)> and bound >= <(a, b)>, the leftmost match
yields <(a)(b)> while the true conditional minimum is <(a, b)>, hosted by
the second transaction.  :func:`min_extension_pair` therefore scans every
transaction that can host F's last itemset (prefix matched greedily
before it), which keeps the search exact at the same asymptotic cost.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, Sequence as TypingSequence

from repro.core.order import sort_key
from repro.core.sequence import (
    FlatSequence,
    RawSequence,
    _is_subset_sorted,
    all_k_subsequences,
    flatten,
    itemset_extension,
    seq_length,
    sequence_extension,
)

#: An extension of a (k-1)-sequence: the appended item and its transaction
#: number within the extended pattern (m = itemset extension into the last
#: transaction, m + 1 = sequence extension into a new transaction).
ExtensionPair = tuple[int, int]


class FrequentNode:
    """One frequent (k-1)-sequence with its match data precomputed."""

    __slots__ = ("raw", "key", "head", "last", "last_item", "size")

    def __init__(self, raw: RawSequence):
        self.raw = raw
        self.key = flatten(raw)
        self.head = raw[:-1]
        self.last = raw[-1]
        self.last_item = raw[-1][-1]
        self.size = len(raw)  # number of transactions (m)


class SortedFrequentList:
    """An ascending list of frequent (k-1)-sequences with bisect support.

    This is the paper's *(k-1)-sorted list*.
    """

    __slots__ = ("nodes", "_keys")

    def __init__(self, sequences: Iterable[RawSequence]):
        self.nodes: list[FrequentNode] = sorted(
            (FrequentNode(raw) for raw in sequences), key=lambda n: n.key
        )
        self._keys = [node.key for node in self.nodes]

    def __len__(self) -> int:
        return len(self.nodes)

    def __getitem__(self, index: int) -> RawSequence:
        return self.nodes[index].raw

    def index_at_or_after(self, target: RawSequence) -> int:
        """Index of the first list entry >= *target* in comparative order."""
        return bisect_left(self._keys, flatten(target))

    def index_at_or_after_key(self, key: FlatSequence) -> int:
        """Like :meth:`index_at_or_after` but for a precomputed key."""
        return bisect_left(self._keys, key)


def min_extension_pair(
    seq: RawSequence,
    node: FrequentNode,
    bound: ExtensionPair | None = None,
    strict: bool = False,
) -> ExtensionPair | None:
    """Smallest valid extension pair of *node* inside *seq*, above a bound.

    A pair ``(item, no)`` is valid when appending *item* at transaction
    number *no* to the node's pattern yields a k-sequence contained in
    *seq* whose (k-1)-prefix is that pattern.  *bound*, when given,
    restricts pairs to those > (``strict``) or >= it; pairs compare
    item-first, matching the comparative order on the full sequences
    because the first k-1 flattened positions agree.  Returns ``None``
    when the node's pattern is not contained in *seq* or no qualifying
    extension exists.
    """
    # Greedy-match the head (all itemsets but the last); pos becomes the
    # first transaction index allowed to host the last itemset.
    pos = 0
    n = len(seq)
    for itemset in node.head:
        if len(itemset) == 1:
            item = itemset[0]
            while pos < n and item not in seq[pos]:
                pos += 1
        else:
            while pos < n and not _is_subset_sorted(itemset, seq[pos]):
                pos += 1
        if pos >= n:
            return None
        pos += 1

    m = node.size
    last = node.last
    last_item = node.last_item
    single = len(last) == 1

    # The bound (b_item, b_no) admits (x, no) iff x > b_item, or
    # x == b_item and no > b_no (strict) / no >= b_no (non-strict);
    # per transaction number that reduces to an item cut point.
    if bound is not None:
        b_item, b_no = bound
        inc_m = (m > b_no) if strict else (m >= b_no)
        inc_m1 = (m + 1 > b_no) if strict else (m + 1 >= b_no)

    # Itemset extensions: the minimum allowed item over every transaction
    # that can host the last itemset (NOT just the leftmost — see the
    # module docstring on the bounded-search counterexample).
    it_best: int | None = None
    first_host = -1
    for t in range(pos, n):
        txn = seq[t]
        if single:
            if last_item not in txn:
                continue
        elif not _is_subset_sorted(last, txn):
            continue
        if first_host < 0:
            first_host = t
        start = bisect_right(txn, last_item)
        if bound is not None:
            cut = bisect_left(txn, b_item) if inc_m else bisect_right(txn, b_item)
            if cut > start:
                start = cut
        if start < len(txn) and (it_best is None or txn[start] < it_best):
            it_best = txn[start]
    if first_host < 0:
        return None

    # Sequence extensions: the minimum allowed item in any transaction
    # strictly after the earliest host.
    seq_best: int | None = None
    for t in range(first_host + 1, n):
        txn = seq[t]
        start = 0
        if bound is not None:
            start = bisect_left(txn, b_item) if inc_m1 else bisect_right(txn, b_item)
        if start < len(txn) and (seq_best is None or txn[start] < seq_best):
            seq_best = txn[start]

    if it_best is None:
        return None if seq_best is None else (seq_best, m + 1)
    if seq_best is None or it_best <= seq_best:
        return (it_best, m)
    return (seq_best, m + 1)


def extension_pairs(seq: RawSequence, prefix: RawSequence) -> set[ExtensionPair]:
    """All valid extension pairs of *prefix* realisable inside *seq*.

    The enumerating counterpart of :func:`min_extension_pair`, used by the
    counting arrays.  Returns the empty set when *seq* does not contain
    *prefix* or no extension exists.
    """
    if not prefix:
        # Extensions of the empty prefix are the 1-sequences of seq.
        return {(item, 1) for txn in seq for item in txn}
    m = len(prefix)
    head, last = prefix[:-1], prefix[-1]
    pos = 0
    n = len(seq)
    for itemset in head:
        while pos < n and not _is_subset_sorted(itemset, seq[pos]):
            pos += 1
        if pos >= n:
            return set()
        pos += 1
    last_item = last[-1]
    single = len(last) == 1
    pairs: set[ExtensionPair] = set()
    first_host = -1
    for t in range(pos, n):
        txn = seq[t]
        if (last_item not in txn) if single else (not _is_subset_sorted(last, txn)):
            continue
        if first_host < 0:
            first_host = t
        # Itemset extensions: items sorting after the last prefix item
        # keep the prefix as the (k-1)-prefix of the extension.
        for i in range(bisect_right(txn, last_item), len(txn)):
            pairs.add((txn[i], m))
    if first_host < 0:
        return set()
    for t in range(first_host + 1, n):
        for item in seq[t]:
            pairs.add((item, m + 1))
    return pairs


def build_extension(prefix: RawSequence, pair: ExtensionPair) -> RawSequence:
    """Materialise the k-sequence for an extension pair of *prefix*."""
    item, no = pair
    if no == len(prefix):
        return itemset_extension(prefix, item)
    if no == len(prefix) + 1:
        return sequence_extension(prefix, item)
    raise ValueError(f"extension pair {pair!r} does not fit prefix of size {len(prefix)}")


def min_extension(
    seq: RawSequence,
    prefix: RawSequence,
    bound: ExtensionPair | None = None,
    strict: bool = False,
) -> RawSequence | None:
    """Smallest extension of *prefix* contained in *seq*, above a bound.

    Convenience wrapper around :func:`min_extension_pair` for callers
    outside the DISC inner loop (partition keys, the dynamic algorithm,
    tests).  Returns ``None`` when no qualifying extension exists.
    """
    if not prefix:
        items = (
            item
            for txn in seq
            for item in txn
            if _pair_passes((item, 1), bound, strict)
        )
        smallest = min(items, default=None)
        if smallest is None:
            return None
        return ((smallest,),)
    pair = min_extension_pair(seq, FrequentNode(prefix), bound=bound, strict=strict)
    if pair is None:
        return None
    return build_extension(prefix, pair)


def _pair_passes(
    pair: ExtensionPair, bound: ExtensionPair | None, strict: bool
) -> bool:
    if bound is None:
        return True
    return pair > bound if strict else pair >= bound


def minimum_k_subsequence_brute(seq: RawSequence, k: int) -> RawSequence | None:
    """Reference k-minimum subsequence by exhaustive enumeration.

    Exponential in *k* — used only by the tests as ground truth.
    """
    subs = all_k_subsequences(seq, k)
    if not subs:
        return None
    return min(subs, key=flatten)


def minimum_k_subsequence(seq: RawSequence, k: int) -> RawSequence | None:
    """Unrestricted k-minimum subsequence (Definition 2.3).

    Builds the minimum incrementally: the k-minimum's (k-1)-prefix is the
    smallest (k-1)-subsequence of *seq* that still has an extension, so we
    search candidate prefixes in ascending order.  Practical for the small
    *k* the library needs outside of DISC (partition keys use k <= 2);
    worst case it enumerates (k-1)-subsequences.
    """
    if k <= 0 or seq_length(seq) < k:
        return None
    if k == 1:
        return ((min(item for txn in seq for item in txn),),)
    candidates = sorted(all_k_subsequences(seq, k - 1), key=flatten)
    for prefix in candidates:
        ext = min_extension(seq, prefix)
        if ext is not None:
            return ext
    return None


# -- Apriori-KMS / Apriori-CKMS (Figures 5 and 6) -----------------------------


def apriori_kms_entry(
    seq: RawSequence,
    flist: SortedFrequentList,
    start: int = 0,
    cache: dict[int, ExtensionPair | None] | None = None,
) -> tuple[FlatSequence, int] | None:
    """Apriori-KMS returning the k-minimum's flat key and apriori pointer.

    Scans the (k-1)-sorted list from *start* in ascending order; the first
    frequent (k-1)-sequence that admits an extension inside *seq* yields
    the k-minimum subsequence of the restricted family.  The key is the
    node's key plus the extension pair — no sequence is materialised.
    *cache* memoises the unbounded per-node results for this customer
    sequence; the apriori pointer only moves forward, so each (sequence,
    node) pair is computed at most once per discovery pass.
    """
    nodes = flist.nodes
    for pointer in range(start, len(nodes)):
        node = nodes[pointer]
        if cache is None:
            pair = min_extension_pair(seq, node)
        elif pointer in cache:
            pair = cache[pointer]
        else:
            pair = cache[pointer] = min_extension_pair(seq, node)
        if pair is not None:
            return node.key + (pair,), pointer
    return None


def apriori_kms(
    seq: RawSequence,
    flist: SortedFrequentList,
    start: int = 0,
) -> tuple[RawSequence, int] | None:
    """Apriori-KMS (Figure 5): k-minimum subsequence with frequent prefix.

    Returns the subsequence together with its apriori pointer (the index
    of its (k-1)-prefix in *flist*), or ``None`` when the restricted
    family is empty.
    """
    nodes = flist.nodes
    for pointer in range(start, len(nodes)):
        node = nodes[pointer]
        pair = min_extension_pair(seq, node)
        if pair is not None:
            return build_extension(node.raw, pair), pointer
    return None


class CkmsQuery:
    """Per-round precomputation shared by all Apriori-CKMS calls.

    One DISC iteration advances a whole group of customer sequences past
    the same ``alpha_delta`` with the same strictness; everything that
    depends only on (alpha_delta, strict, flist) is computed here once.
    """

    __slots__ = ("prefix_key", "bound", "strict", "start")

    def __init__(
        self,
        flist: SortedFrequentList,
        alpha_delta: RawSequence,
        strict: bool,
    ):
        key = flatten(alpha_delta)
        self.prefix_key = key[:-1]
        self.bound = key[-1]
        self.strict = strict
        self.start = flist.index_at_or_after_key(self.prefix_key)


def apriori_ckms_entry(
    seq: RawSequence,
    flist: SortedFrequentList,
    pointer: int,
    query: CkmsQuery,
    cache: dict[int, ExtensionPair | None] | None = None,
) -> tuple[FlatSequence, int] | None:
    """Apriori-CKMS returning the conditional k-minimum's key and pointer.

    Finds the smallest k-subsequence of *seq* with a frequent (k-1)-prefix
    that is > (``query.strict``) or >= alpha_delta.  The scan resumes from
    the entry's apriori *pointer*, skipping frequent (k-1)-sequences
    smaller than alpha_delta's (k-1)-prefix (Figure 6, Steps 4-7).
    *cache* memoises the unbounded per-node results (the bounded query
    against alpha_delta's own prefix node is never cached — its bound
    changes every round).
    """
    nodes = flist.nodes
    start = pointer if pointer > query.start else query.start
    prefix_key = query.prefix_key
    for idx in range(start, len(nodes)):
        node = nodes[idx]
        if node.key == prefix_key:
            pair = min_extension_pair(
                seq, node, bound=query.bound, strict=query.strict
            )
        else:
            # node.key > prefix_key here, so any extension already exceeds
            # alpha_delta at a position inside the prefix.
            if cache is None:
                pair = min_extension_pair(seq, node)
            elif idx in cache:
                pair = cache[idx]
            else:
                pair = cache[idx] = min_extension_pair(seq, node)
        if pair is not None:
            return node.key + (pair,), idx
    return None


def apriori_ckms(
    seq: RawSequence,
    flist: SortedFrequentList,
    pointer: int,
    alpha_delta: RawSequence,
    strict: bool,
) -> tuple[RawSequence, int] | None:
    """Apriori-CKMS (Figure 6): conditional k-minimum subsequence.

    Materialising convenience wrapper around :func:`apriori_ckms_entry`.
    """
    query = CkmsQuery(flist, alpha_delta, strict)
    found = apriori_ckms_entry(seq, flist, pointer, query)
    if found is None:
        return None
    key, idx = found
    node = flist.nodes[idx]
    return build_extension(node.raw, key[-1]), idx


def next_key_after(
    seq: RawSequence,
    first_item: int,
    current: RawSequence | None,
) -> RawSequence | None:
    """Next 2-sequence partition key for *seq* under a first-level item.

    Returns the smallest 2-subsequence of *seq* whose first item is
    *first_item* and which is strictly greater than *current* (or the very
    smallest when *current* is None).  Used to (re)assign customer
    sequences to second-level partitions.
    """
    anchor: RawSequence = ((first_item,),)
    if current is None:
        return min_extension(seq, anchor)
    pair = flatten(current)[1]
    return min_extension(seq, anchor, bound=pair, strict=True)


def verify_sorted(seqs: TypingSequence[RawSequence]) -> bool:
    """True when *seqs* is ascending in the comparative order (test aid)."""
    keys = [sort_key(s) for s in seqs]
    return all(a <= b for a, b in zip(keys, keys[1:]))
