"""End-to-end learning sanity checks for the substrate and both runtimes.

These tests verify that the pieces genuinely learn when put together —
single-machine SGD on each model family, the simulator, and the threaded
parameter server all reduce the loss / raise the accuracy on a small
synthetic problem well above chance.
"""

import numpy as np
import pytest

import repro
from repro.data.synthetic import SyntheticImageConfig, make_synthetic_image_dataset
from repro.metrics.accuracy import evaluate_model
from repro.models import downsized_alexnet, resnet20
from repro.nn.losses import SoftmaxCrossEntropy
from repro.optim.schedules import MultiStepSchedule
from repro.optim.sgd import SGD


@pytest.fixture(scope="module")
def image_problem():
    config = SyntheticImageConfig(
        num_classes=4, num_train=240, num_test=80, image_size=8, noise_scale=0.4, seed=11
    )
    return make_synthetic_image_dataset(config)


def train_single_machine(model, train, steps=60, batch_size=16, learning_rate=0.05):
    """Plain mini-batch SGD on one machine, via the state-dict optimizer."""
    rng = np.random.default_rng(0)
    loss_fn = SoftmaxCrossEntropy()
    optimizer = SGD(learning_rate=learning_rate, momentum=0.9)
    weights = {name: parameter.data for name, parameter in model.named_parameters()}
    losses = []
    for _ in range(steps):
        indices = rng.integers(0, len(train), size=batch_size)
        inputs, labels = train.inputs[indices], train.labels[indices]
        model.zero_grad()
        logits = model.forward(inputs)
        losses.append(loss_fn.forward(logits, labels))
        model.backward(loss_fn.backward())
        optimizer.step(weights, model.gradients())
    return losses


class TestSingleMachineTraining:
    def test_alexnet_learns(self, image_problem):
        train, test = image_problem
        model = downsized_alexnet(
            num_classes=4, image_size=8, width=4, fc_width=16, dropout=0.0,
            rng=np.random.default_rng(1),
        )
        losses = train_single_machine(model, train, steps=50, learning_rate=0.02)
        accuracy, _ = evaluate_model(model, test)
        assert losses[-1] < losses[0]
        assert accuracy > 0.5

    def test_resnet_learns(self, image_problem):
        train, test = image_problem
        model = resnet20(num_classes=4, base_width=4, rng=np.random.default_rng(1))
        losses = train_single_machine(model, train, steps=40, learning_rate=0.05)
        accuracy, _ = evaluate_model(model, test)
        assert losses[-1] < losses[0]
        assert accuracy > 0.45

    def test_learning_rate_schedule_integrates_with_optimizer(self, image_problem):
        train, _ = image_problem
        model = downsized_alexnet(
            num_classes=4, image_size=8, width=4, fc_width=16, dropout=0.0,
            rng=np.random.default_rng(2),
        )
        optimizer = SGD(learning_rate=0.05)
        schedule = MultiStepSchedule(0.05, milestones=(1,), decay=0.1)
        optimizer.learning_rate = schedule.learning_rate(0)
        assert optimizer.learning_rate == pytest.approx(0.05)
        optimizer.learning_rate = schedule.learning_rate(2)
        assert optimizer.learning_rate == pytest.approx(0.005)


class TestDistributedMatchesSingleMachineDirection:
    def test_simulated_bsp_matches_large_batch_direction(self, image_problem):
        """One BSP round with P workers (gradient scale 1/P) moves the weights
        in the same direction as one large-batch step on the union of the
        workers' mini-batches."""
        from repro.core.factory import make_policy
        from repro.ps.sharding import make_store
        from repro.ps.server import ParameterServer
        from repro.ps.session import ServerSession

        train, _ = image_problem
        model = downsized_alexnet(
            num_classes=4, image_size=8, width=4, fc_width=16, dropout=0.0,
            rng=np.random.default_rng(3),
        )
        loss_fn = SoftmaxCrossEntropy()
        initial = model.state_dict()

        # Two workers, 8 samples each.
        batches = [(train.inputs[:8], train.labels[:8]), (train.inputs[8:16], train.labels[8:16])]
        store = make_store({name: p.data.copy() for name, p in model.named_parameters()})
        server = ParameterServer(
            store=store, optimizer=SGD(learning_rate=0.1), policy=make_policy("bsp")
        )
        server.register_worker("w0")
        server.register_worker("w1")
        session = ServerSession(server, ["w0", "w1"])
        for worker_id, (inputs, labels) in zip(("w0", "w1"), batches):
            model.load_state_dict(initial)
            model.zero_grad()
            loss_fn.forward(model.forward(inputs), labels)
            model.backward(loss_fn.backward())
            session.push(
                worker_id, {"base_version": 0, "timestamp": 1.0}, named=model.gradients()
            )
        distributed = server.store.weights_snapshot()

        # Large-batch reference step.
        model.load_state_dict(initial)
        model.zero_grad()
        inputs = np.concatenate([b[0] for b in batches])
        labels = np.concatenate([b[1] for b in batches])
        loss_fn.forward(model.forward(inputs), labels)
        model.backward(loss_fn.backward())
        reference_weights = {name: p.data.copy() for name, p in model.named_parameters()}
        SGD(learning_rate=0.1).step(reference_weights, model.gradients())

        for name in distributed:
            moved = distributed[name] - initial[name]
            reference_move = reference_weights[name] - initial[name]
            if np.linalg.norm(moved) < 1e-12 or np.linalg.norm(reference_move) < 1e-12:
                continue
            cosine = float(
                np.sum(moved * reference_move)
                / (np.linalg.norm(moved) * np.linalg.norm(reference_move))
            )
            assert cosine > 0.9


class TestPackageMetadata:
    def test_version_exposed(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2
