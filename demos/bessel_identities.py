"""The modified Bessel pair I, K: values, regimes and the exact Wronskian."""

import numpy as np

from cone_forge import bessel as bs

print("== evaluation regimes: Temme's series below x = 2, Steed's CF2 above ==")
for mu, x in ((0.5, 0.3), (0.5, 5.0), (0.5, 30.0), (1.0, 0.3), (1.0 + 1e-11, 0.5)):
    ev = bs.bessel_eval(mu, x)
    print(f"  mu={mu}, x={x:5.1f}: I={ev.value_i:.6e}  K={ev.value_k:.6e}"
          f"  [{ev.regime}]")

print("\n== closed forms at half-integer order ==")
print("I_1/2(1) =", bs.bessel_i(0.5, 1.0), " sqrt(2/pi) sinh 1 =",
      np.sqrt(2 / np.pi) * np.sinh(1.0))
print("K_1/2(1) =", bs.bessel_k(0.5, 1.0), " sqrt(pi/2) e^-1   =",
      np.sqrt(np.pi / 2) * np.exp(-1.0))

print("\n== the Wronskian is exactly 1/x ==")
grid = np.logspace(-2, 1, 7)
for mu in (0.0, 0.5, 1.0, 2.3):
    print(f"  mu = {mu}: max |I'K - K'I - 1/x| =",
          float(np.max(bs.wronskian_residual(mu, grid))))

print("\n== small-argument behaviour ==")
print("K_0(1e-8) / (-log 1e-8) =", bs.bessel_k(0.0, 1e-8) / (-np.log(1e-8)))
print("1e-8 * K_1(1e-8)        =", 1e-8 * bs.bessel_k(1.0, 1e-8))
