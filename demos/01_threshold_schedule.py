"""The adaptive gating threshold.

The curriculum gate compares hard-sample loss mass against a fraction
thres(t) = a * (1 - t/T) + b of the batch (or top-K) loss. Within each
epoch t runs from 1 to T, so the fraction decays linearly from nearly
a + b down to b and then resets: early iterations demand a lot of loss
concentration before narrowing the update, late iterations almost none.
"""

from hadcl.curriculum import threshold

a, b = 0.7, 0.2
T = 20  # batches per epoch; the training loop passes its own count

print(f"schedule: a={a}, b={b}, T={T}")
print(f"range: thres(0)={threshold(0, T, a, b):.3f} "
      f"... thres(T)={threshold(T, T, a, b):.3f}\n")

width = 50
for t in range(T + 1):
    th = threshold(t, T, a, b)
    bar = "#" * int(round(th * width))
    print(f"t={t:3d}  thres={th:.3f}  {bar}")

print("\nAcross epochs the threshold is a sawtooth: it resets to a + b at the")
print("start of every epoch, so each epoch replays the easy-to-hard sweep.")
for epoch in range(3):
    row = " ".join(f"{threshold(t, T, a, b):.2f}" for t in range(1, T + 1, 4))
    print(f"epoch {epoch}: {row}")
