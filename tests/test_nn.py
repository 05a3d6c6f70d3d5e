import numpy as np
import pytest

from planlm import autodiff as ad
from planlm import nn
from planlm.autodiff import Tensor
from planlm.errors import ValidationError


def quadratic():
    """One parameter and a batch loss pulling it toward 1, recording each
    value the loss sees."""
    w = nn.zeros_param((1,))
    seen = []

    def batch_loss(batch):
        seen.append(w.values.copy())
        diff = w - Tensor(np.ones(1, dtype=np.float32))
        return (diff * diff).sum()

    return w, seen, batch_loss


def scored(w, scores):
    """A val_metric returning `scores` in turn, recording the value of `w`
    and whether it was trainable at each call."""
    scores = iter(scores)
    at_val = []

    def val_metric():
        at_val.append((w.values.copy(), w.requires_grad))
        return next(scores)

    return val_metric, at_val


def test_fit_stops_after_patience_and_restores_best():
    w, _, batch_loss = quadratic()
    val_metric, at_val = scored(w, [5.0, 3.0, 2.0, 2.5, 2.0, 4.0, 1.0, 0.5])
    history = nn.fit({"w": w}, list(range(4)), lambda _: 0, batch_loss,
                     batch_size=4, lr=0.1, max_epochs=10, patience=3, seed=0,
                     val_metric=val_metric)
    # the start scores 5.0 and epoch 1 scores 2.0; epochs 2-4 do not improve
    # on it (an equal score does not count), so training stops after epoch 4
    assert history["val_metric"] == [3.0, 2.0, 2.5, 2.0, 4.0]
    assert len(history["train_loss"]) == 5
    assert history["best_val_metric"] == 2.0
    np.testing.assert_array_equal(w.values, at_val[2][0])
    assert not np.array_equal(w.values, at_val[-1][0])


def test_fit_keeps_the_start_when_no_epoch_beats_it():
    w, seen, batch_loss = quadratic()
    w.values[:] = 0.5
    val_metric, _ = scored(w, [1.0, 1.5, 1.0, 2.0])
    history = nn.fit({"w": w}, list(range(4)), lambda _: 0, batch_loss,
                     batch_size=4, lr=0.1, max_epochs=10, patience=3, seed=0,
                     val_metric=val_metric)
    assert history["val_metric"] == [1.5, 1.0, 2.0]
    assert history["best_val_metric"] == 1.0
    assert len(seen) == 3 and w.values[0] != seen[-1][0]  # training moved w
    np.testing.assert_array_equal(w.values, [0.5])


def test_fit_makes_parameters_trainable_only_while_stepping():
    w, _, batch_loss = quadratic()
    trainable_in_step = []

    def loss(batch):
        trainable_in_step.append(w.requires_grad)
        return batch_loss(batch)

    val_metric, at_val = scored(w, [3.0, 2.0, 1.0])
    nn.fit({"w": w}, list(range(4)), lambda _: 0, loss, batch_size=2,
           lr=0.1, max_epochs=2, patience=3, seed=0, val_metric=val_metric)
    assert trainable_in_step == [True] * 4
    assert [trainable for _, trainable in at_val] == [False] * 3
    assert not w.requires_grad and w.grad is None


def test_fit_without_val_metric_runs_the_budget_and_keeps_last():
    w, seen, batch_loss = quadratic()
    history = nn.fit({"w": w}, list(range(4)), lambda _: 0, batch_loss,
                     batch_size=4, lr=0.1, max_epochs=3, patience=1, seed=0)
    assert len(history["train_loss"]) == 3
    assert len(seen) == 3  # one batch per epoch
    assert history["val_metric"] == []
    assert "best_val_metric" not in history
    # the last step was kept: nothing was restored to an earlier value
    assert w.values[0] > seen[-1][0] > seen[0][0]
    assert history["train_loss"][-1] < history["train_loss"][0]


def test_fit_is_deterministic_per_seed():
    def run(seed):
        order = []
        w = nn.zeros_param((1,))

        def batch_loss(batch):
            order.append(list(batch))
            return (w * w).sum()

        nn.fit({"w": w}, list(range(10)), lambda i: i % 3, batch_loss,
               batch_size=2, lr=0.1, max_epochs=2, patience=1, seed=seed)
        return order

    assert run(4) == run(4)
    assert run(4) != run(5)


def test_fit_refuses_a_non_finite_loss_before_the_update(monkeypatch):
    monkeypatch.setattr(ad, "DEBUG_CHECKS", False)
    w, seen, batch_loss = quadratic()

    def poisoned(batch):
        loss = batch_loss(batch)
        return loss * float("nan") if len(seen) == 3 else loss

    with pytest.raises(ValidationError, match="epoch 1, step 0"):
        nn.fit({"w": w}, list(range(4)), lambda _: 0, poisoned,
               batch_size=2, lr=0.1, max_epochs=3, patience=1, seed=0)
    # two steps ran in epoch 0; the third batch's NaN never reached w
    np.testing.assert_array_equal(w.values, seen[-1])
    assert np.isfinite(w.values).all()
    assert not w.requires_grad and w.grad is None


ITEMS = [(i, length) for i, length in enumerate([3, 1, 2, 3, 1, 3, 2, 3, 3, 1])]


def length(item):
    return item[1]


def test_length_batches_cover_every_item_once_with_one_length():
    for rng in (None, np.random.default_rng(0)):
        batches = nn.length_batches(ITEMS, length, 2, rng)
        flat = [item for batch in batches for item in batch]
        assert sorted(flat) == ITEMS
        assert all(0 < len(batch) <= 2 for batch in batches)
        assert all(len({length(item) for item in batch}) == 1
                   for batch in batches)


def test_length_batches_without_rng_keep_order_by_ascending_length():
    batches = nn.length_batches(ITEMS, length, 2)
    lengths = [length(batch[0]) for batch in batches]
    assert lengths == sorted(lengths)
    flat = [item for batch in batches for item in batch]
    assert flat == sorted(ITEMS, key=length)  # stable within a length


def test_length_batches_order_is_deterministic_per_seed():
    def run(seed):
        return nn.length_batches(ITEMS, length, 2, np.random.default_rng(seed))

    assert run(1) == run(1)
    assert run(1) != run(2)
    assert nn.length_batches([], length, 2, np.random.default_rng(0)) == []


@pytest.mark.parametrize("past", [[0], [4], [0, 3, 5], [2, 2]])
def test_per_row_causal_bias_is_the_scalar_bias_after_each_rows_padding(past):
    t, p = 3, max(past)
    bias = nn.causal_bias(t, np.array(past)).values
    assert bias.shape == (len(past), 1, t, p + t)
    for row, n in enumerate(past):
        pad = p - n
        np.testing.assert_array_equal(bias[row, 0, :, pad:],
                                      nn.causal_bias(t, n).values)
        assert (bias[row, 0, :, :pad] == np.float32(nn.MASK_BIAS)).all()


def test_cache_put_keeps_rows_right_aligned_and_take_trims():
    def part(n, fill):
        c = nn.KVCache(1)
        c.layers = [[np.full((1, 2, n, 3), fill, np.float32)] * 2]
        c.lengths[:] = n
        return c

    cache = nn.KVCache(3)
    for row, n in enumerate((2, 5, 4)):
        cache.put([row], part(n, row + 1))
    keys = cache.layers[0][0]
    assert keys.shape == (3, 2, 5, 3)
    assert [(keys[r, 0, :, 0] != 0).sum() for r in range(3)] == [2, 5, 4]
    assert (keys[0, :, 3:] == 1).all() and (keys[0, :, :3] == 0).all()
    # refilling the longest row drops the columns no row uses
    cache.put([1], part(1, 7))
    assert cache.layers[0][0].shape[2] == 4
    assert cache.lengths.tolist() == [2, 1, 4]
    sub = cache.take(np.array([0, 1]))
    assert sub.lengths.tolist() == [2, 1]
    np.testing.assert_array_equal(sub.layers[0][0],
                                  cache.layers[0][0][:2, :, 2:])
