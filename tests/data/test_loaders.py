"""Padding, negative sampling and batch loaders."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.augment.compose import PairSampler
from repro.augment.crop import Crop
from repro.data.loaders import (
    ContrastiveBatchLoader,
    NegativeSampler,
    NextItemBatch,
    NextItemBatchLoader,
    batch_sequences,
    pad_left,
)


class TestPadLeft:
    def test_pads_on_left(self):
        out = pad_left(np.array([1, 2, 3]), 5)
        np.testing.assert_array_equal(out, [0, 0, 1, 2, 3])

    def test_truncates_keeping_last(self):
        out = pad_left(np.array([1, 2, 3, 4, 5]), 3)
        np.testing.assert_array_equal(out, [3, 4, 5])

    def test_exact_length(self):
        out = pad_left(np.array([1, 2]), 2)
        np.testing.assert_array_equal(out, [1, 2])

    def test_empty_sequence(self):
        out = pad_left(np.array([], dtype=np.int64), 3)
        np.testing.assert_array_equal(out, [0, 0, 0])

    def test_custom_pad_value(self):
        out = pad_left(np.array([7]), 3, pad_value=-1)
        np.testing.assert_array_equal(out, [-1, -1, 7])

    @settings(max_examples=25, deadline=None)
    @given(
        length=st.integers(1, 20),
        target=st.integers(1, 20),
    )
    def test_property_always_target_length(self, length, target):
        seq = np.arange(1, length + 1)
        assert len(pad_left(seq, target)) == target


class TestNegativeSampler:
    def test_avoids_positives(self):
        rng = np.random.default_rng(0)
        sampler = NegativeSampler(50, rng)
        positives = rng.integers(1, 51, size=(100, 10))
        negatives = sampler.sample(positives)
        assert not (negatives == positives).any()

    def test_range(self):
        sampler = NegativeSampler(10, np.random.default_rng(1))
        negatives = sampler.sample(np.ones((200,), dtype=np.int64))
        assert negatives.min() >= 1
        assert negatives.max() <= 10

    def test_two_items_edge_case(self):
        sampler = NegativeSampler(2, np.random.default_rng(2))
        positives = np.full(50, 1)
        negatives = sampler.sample(positives)
        assert (negatives == 2).all()

    def test_too_few_items_rejected(self):
        with pytest.raises(ValueError):
            NegativeSampler(1, np.random.default_rng(0))


class TestNextItemBatchLoader:
    def make_loader(self, dataset, batch_size=32, max_length=10):
        return NextItemBatchLoader(
            dataset, max_length, batch_size, np.random.default_rng(0)
        )

    def test_target_is_next_item(self, tiny_dataset):
        loader = self.make_loader(tiny_dataset)
        batch = next(iter(loader.epoch()))
        for row, user in enumerate(batch.users):
            seq = tiny_dataset.train_sequences[user]
            inputs = batch.inputs[row]
            targets = batch.targets[row]
            # Wherever both are real, target at t equals input at t+1.
            real = (inputs[:-1] > 0) & (targets[:-1] > 0)
            np.testing.assert_array_equal(
                targets[:-1][real], inputs[1:][real]
            )
            # Last target is the sequence's last training item.
            assert targets[-1] == seq[-1]

    def test_mask_matches_targets(self, tiny_dataset):
        loader = self.make_loader(tiny_dataset)
        batch = next(iter(loader.epoch()))
        np.testing.assert_array_equal(batch.mask, (batch.targets > 0).astype(float))

    def test_negatives_differ_from_targets(self, tiny_dataset):
        loader = self.make_loader(tiny_dataset)
        batch = next(iter(loader.epoch()))
        real = batch.mask > 0
        assert not (batch.negatives[real] == batch.targets[real]).any()

    def test_epoch_covers_all_eligible_users(self, tiny_dataset):
        loader = self.make_loader(tiny_dataset, batch_size=17)
        seen = np.concatenate([b.users for b in loader.epoch()])
        assert len(np.unique(seen)) == len(seen)
        eligible = [
            u
            for u, s in enumerate(tiny_dataset.train_sequences)
            if len(s) >= 2
        ]
        assert set(seen) == set(eligible)

    def test_num_batches(self, tiny_dataset):
        loader = self.make_loader(tiny_dataset, batch_size=17)
        assert loader.num_batches == len(list(loader.epoch()))

    def test_shapes(self, tiny_dataset):
        loader = self.make_loader(tiny_dataset, batch_size=16, max_length=12)
        batch = next(iter(loader.epoch()))
        assert batch.inputs.shape == (16, 12)
        assert batch.targets.shape == (16, 12)
        assert batch.negatives.shape == (16, 12)


class TestContrastiveBatchLoader:
    def make_loader(self, dataset, batch_size=32, max_length=10):
        sampler = PairSampler([Crop(0.7)])
        return ContrastiveBatchLoader(
            dataset, sampler, max_length, batch_size, np.random.default_rng(0)
        )

    def test_two_views_padded(self, tiny_dataset):
        loader = self.make_loader(tiny_dataset)
        batch = next(iter(loader.epoch()))
        assert batch.view_a.shape == batch.view_b.shape == (32, 10)
        # Views are left-padded: any zero entries precede real ones.
        for row in batch.view_a:
            nonzero = np.flatnonzero(row)
            if len(nonzero):
                assert (row[nonzero[0] :] > 0).all()

    def test_views_differ_between_a_and_b(self, tiny_dataset):
        loader = self.make_loader(tiny_dataset)
        batch = next(iter(loader.epoch()))
        assert not np.array_equal(batch.view_a, batch.view_b)

    def test_min_two_users_per_batch(self, tiny_dataset):
        loader = self.make_loader(tiny_dataset, batch_size=64)
        for batch in loader.epoch():
            assert len(batch.users) >= 2

    @settings(max_examples=40, deadline=None)
    @given(
        workers=st.integers(1, 9),
        worker=st.integers(0, 8),
        batch_size=st.integers(1, 40),
    )
    @example(workers=1, worker=0, batch_size=39)  # 118 users: a 1-user tail
    def test_num_batches_counts_what_epoch_yields(
        self, tiny_dataset, workers, worker, batch_size
    ):
        """Over shard sizes, including the ``% batch_size == 1`` tails
        that epoch() skips (a contrastive batch needs a negative)."""
        loader = ContrastiveBatchLoader(
            tiny_dataset,
            PairSampler([Crop(0.7)]),
            10,
            batch_size,
            np.random.default_rng(0),
            worker_shard=(worker % workers, workers),
        )
        assert loader.num_batches == len(list(loader.epoch()))


class TestBatchSequences:
    def test_padding_mask(self):
        batch, mask = batch_sequences([np.array([1, 2]), np.array([3])], 4)
        np.testing.assert_array_equal(batch[0], [0, 0, 1, 2])
        np.testing.assert_array_equal(mask[1], [True, True, True, False])


class TestPaddedPositionNegatives:
    """The pad-id contract: negatives never carry real items at padding.

    Historical bug: padded positions used to receive the fixed item id
    1 instead of the pad id 0.  The masked BCE zeroes those positions
    either way, so the fix is numerically invisible (asserted below) —
    but batches are cleaner to inspect and no real item id leaks into
    slots that represent "nothing".
    """

    @pytest.mark.parametrize("pipeline", ["reference", "vectorized"])
    def test_negatives_are_pad_id_at_padded_positions(
        self, tiny_dataset, pipeline
    ):
        loader = NextItemBatchLoader(
            tiny_dataset,
            max_length=12,
            batch_size=32,
            rng=np.random.default_rng(0),
            pipeline=pipeline,
        )
        for batch in loader.epoch():
            padded = batch.mask == 0.0
            assert (batch.negatives[padded] == 0).all()
            # Real positions still hold genuine sampled items.
            assert (batch.negatives[~padded] > 0).all()

    def test_padded_negatives_never_reach_the_loss(self, tiny_dataset):
        # Replacing the padded-position negative ids with arbitrary
        # real items must change neither the loss nor any gradient.
        from repro.models.sasrec import SASRec, SASRecConfig
        from repro.models.training import TrainConfig

        model = SASRec(
            tiny_dataset,
            SASRecConfig(dim=16, train=TrainConfig(max_length=12)),
        )
        model.eval()  # no dropout draws: forwards are comparable
        loader = NextItemBatchLoader(
            tiny_dataset,
            max_length=12,
            batch_size=32,
            rng=np.random.default_rng(0),
        )
        batch = next(iter(loader.epoch()))

        def loss_and_grads(tampered_negatives):
            for param in model.parameters():
                param.grad = None
            loss = model.sequence_loss(
                NextItemBatch(
                    batch.users,
                    batch.inputs,
                    batch.targets,
                    tampered_negatives,
                    batch.mask,
                )
            )
            loss.backward()
            return loss.item(), [
                None if p.grad is None else p.grad.copy()
                for p in model.parameters()
            ]

        tampered = batch.negatives.copy()
        tampered[batch.mask == 0.0] = 7  # any real item id
        base_loss, base_grads = loss_and_grads(batch.negatives)
        tampered_loss, tampered_grads = loss_and_grads(tampered)
        assert base_loss == tampered_loss
        for left, right in zip(base_grads, tampered_grads):
            if left is None:
                assert right is None
            else:
                np.testing.assert_array_equal(left, right)
