//===- vm/Calibration.h - Paper-derived model constants ---------*- C++ -*-===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every tunable constant of the performance models lives here, each with
/// the statement in the paper (Ferreira & Sobral, "ParC#: Parallel Computing
/// with C# in .Net") it was calibrated against.  The models themselves are
/// mechanistic (fixed per-message software cost + per-byte serialisation
/// cost + shared 100 Mbit wire); these constants pin the mechanisms to the
/// paper's measured numbers.
///
/// Hardware baseline (Section 4): Linux cluster, dual Athlon MP 1800+,
/// 512 MB RAM, 100 Mbit switched Ethernet.
///
//===----------------------------------------------------------------------===//

#ifndef PARCS_VM_CALIBRATION_H
#define PARCS_VM_CALIBRATION_H

#include "sim/SimTime.h"

namespace parcs::calib {

using sim::SimTime;

//===----------------------------------------------------------------------===//
// Nodes (Section 4: "dual Athlon MP 1800+")
//===----------------------------------------------------------------------===//

/// CPUs per node: every cluster, farm and MPI machinefile in the paper's
/// experiments runs on these dual-processor nodes.
inline constexpr int CoresPerNode = 2;

//===----------------------------------------------------------------------===//
// Network fabric (Section 4: "100 Mbit Ethernet")
//===----------------------------------------------------------------------===//

/// Raw link rate of the cluster interconnect.
inline constexpr double LinkBitsPerSecond = 100e6;

/// Ethernet + IP + TCP framing per packet: 14 (Eth hdr) + 4 (FCS) + 12 (IFG)
/// + 8 (preamble) + 20 (IP) + 20 (TCP) = 78 bytes.
inline constexpr int FrameOverheadBytes = 78;

/// TCP maximum segment size (Ethernet MTU 1500 - 40 header bytes).
inline constexpr int MaxSegmentBytes = 1460;

/// One-way propagation + switch latency.  A store-and-forward 100 Mbit
/// switch adds roughly the serialisation time of a minimum frame plus port
/// latency; 5 us is a typical figure for the era.
inline constexpr SimTime SwitchLatency = SimTime::microseconds(5);

//===----------------------------------------------------------------------===//
// Per-stack software costs.
//
// Calibrated against the in-text latency numbers (Section 4): one-way
// small-message latency of 100 us (MPI), 273 us (Mono Remoting 1.1.7),
// 520 us (Java RMI), with Java nio "very close to" Mono.  With ~12 us of
// wire+switch time for a minimal message, the remaining latency is split
// evenly between sender and receiver software fixed costs.
//
// The per-byte costs set the large-message bandwidth plateaus of Fig. 8:
// MPI close to the 11.9 MB/s wire ceiling, Java RMI below it, Mono 1.1.7
// lagging Java for large messages, Mono 1.0.5 an order of magnitude worse
// ("performance has radically increased from release 1.0.5"), and the Http
// channel worst of all.
//===----------------------------------------------------------------------===//

/// Per-message fixed software cost on each side for MPICH 1.2.6 class
/// messaging (driver + library, no marshalling of flat buffers).
inline constexpr SimTime MpiFixedPerSide = SimTime::microseconds(40);
/// Per-byte copy cost for MPI (single memcpy into the socket).
inline constexpr double MpiPerByteNs = 1.0;

/// Java RMI (SDK 1.4.2): object stream setup, stub/skeleton dispatch and
/// distributed-GC bookkeeping dominate the 520 us latency.
inline constexpr SimTime RmiFixedPerSide = SimTime::microseconds(239);
/// Java serialisation per-byte cost (object stream writes).
inline constexpr double RmiPerByteNs = 15.0;

/// Java nio (Java 1.4): message-passing style, "very close to" Mono's
/// latency and with buffer-level I/O close to MPI per-byte costs.
inline constexpr SimTime JavaNioFixedPerSide = SimTime::microseconds(112);
inline constexpr double JavaNioPerByteNs = 2.0;

/// Mono Remoting 1.1.7 over the TcpChannel + binary formatter.
inline constexpr SimTime MonoTcpFixedPerSide = SimTime::microseconds(119);
/// Mono 1.1.7 binary serialiser per-byte cost; higher than Java's, which is
/// why Mono "lags behind the Java implementation" for large messages.
inline constexpr double MonoTcpPerByteNs = 30.0;

/// Mono Remoting 1.0.5: the paper's Fig. 8b shows a dramatic improvement
/// from 1.0.5 to 1.1.7; 1.0.5 plateaus around 1 MB/s.
inline constexpr SimTime Mono105FixedPerSide = SimTime::microseconds(600);
inline constexpr double Mono105PerByteNs = 1000.0;

/// Mono Remoting 1.1.7 over the HttpChannel + SOAP formatter: each call
/// carries an HTTP request/response and an XML envelope; payload bytes are
/// base64/XML inflated on the wire (factor handled by the SOAP formatter).
inline constexpr SimTime MonoHttpFixedPerSide = SimTime::microseconds(900);
inline constexpr double MonoHttpPerByteNs = 120.0;
/// Extra wire bytes of HTTP headers per remoting call.
inline constexpr int HttpHeaderBytes = 420;

/// Projected remoting costs for the tuned Mono (runtime fixed costs cut
/// to Java-nio territory, serialiser per-byte cost cut 3x).
inline constexpr SimTime MonoTunedFixedPerSide = SimTime::microseconds(90);
inline constexpr double MonoTunedPerByteNs = 10.0;

/// One-time TCP connection establishment to a new destination (SYN
/// handshake + stream/proxy setup) for the connection-oriented stacks.
/// Warm-up rounds in the paper's ping-pong absorb this; it shows up as a
/// slower first call.
inline constexpr SimTime TcpConnectSetup = SimTime::microseconds(750);

//===----------------------------------------------------------------------===//
// Virtual machine execution-cost multipliers.
//
// Section 4: "The C# sequential execution time in this particular
// application is 40% superior to the Java version (using the Microsoft
// virtual machine ... it is only 10% superior)" -- for the floating-point
// heavy ray tracer.  "running another application, a prime number sieve,
// the Mono execution time is about the same as the JVM."
//===----------------------------------------------------------------------===//

/// Relative cost of floating-point heavy code (ray tracer) per VM,
/// normalised to the Sun JVM 1.4.2 = 1.0.
inline constexpr double FpCostNative = 0.85;
inline constexpr double FpCostSunJvm = 1.0;
inline constexpr double FpCostMsClr = 1.1;
inline constexpr double FpCostMono117 = 1.4;
inline constexpr double FpCostMono105 = 1.7;
/// Projection for the paper's future work ("the virtual machine JIT ...
/// should be improved"): a Mono whose JIT closes most of the gap to the
/// Sun JVM.
inline constexpr double FpCostMonoTuned = 1.05;

/// Relative cost of integer code (prime sieve) per VM.
inline constexpr double IntCostNative = 0.9;
inline constexpr double IntCostSunJvm = 1.0;
inline constexpr double IntCostMsClr = 1.0;
inline constexpr double IntCostMono117 = 1.0;
inline constexpr double IntCostMono105 = 1.25;

/// Relative cost of allocation-heavy code per VM (GC maturity).
inline constexpr double AllocCostNative = 1.0;
inline constexpr double AllocCostSunJvm = 1.0;
inline constexpr double AllocCostMsClr = 1.05;
inline constexpr double AllocCostMono117 = 1.3;
inline constexpr double AllocCostMono105 = 1.6;

//===----------------------------------------------------------------------===//
// Threading (Section 4: "The Mono implementation uses a thread pool to
// reduce the thread creation cost; however limiting the number of running
// threads in parallel applications reduces the overlap among computation
// and communication and also produces starvation in some application
// threads.")
//===----------------------------------------------------------------------===//

/// Mono's default thread-pool worker cap per node in the model.  Two
/// workers on a dual-CPU node means a node busy computing has no spare
/// thread to overlap receiving the next work item.
inline constexpr int MonoThreadPoolMax = 2;

/// Projection for the future-work thread-scheduling fix: a pool that can
/// grow past the core count, restoring compute/communication overlap.
inline constexpr int MonoTunedThreadPoolMax = 16;

/// The Sun JVM RMI runtime spawns a thread per concurrent call; model as a
/// generous cap.
inline constexpr int JvmThreadPoolMax = 64;

/// Cost of dispatching a work item through a thread pool (enqueue + wake).
inline constexpr SimTime ThreadPoolDispatch = SimTime::microseconds(15);

/// Cost of creating a fresh thread (what the pool amortises away).
inline constexpr SimTime ThreadCreateCost = SimTime::microseconds(250);

/// Scheduler time slice used for core sharing on a node (Linux 2.4/2.6 era
/// default order of magnitude).
inline constexpr SimTime SchedulerQuantum = SimTime::milliseconds(10);

//===----------------------------------------------------------------------===//
// Ray tracer workload (Section 4, Fig. 9)
//===----------------------------------------------------------------------===//

/// Per-pixel cost of the Java Grande ray tracer on the reference VM
/// (Sun JVM): a 500x500 scene takes ~100 s sequentially in Fig. 9, i.e.
/// 400 us per pixel.
inline constexpr SimTime RayTracerPerPixelJvm = SimTime::microseconds(400);

//===----------------------------------------------------------------------===//
// Prime sieve workload (Section 4's VM comparison, ablations A1 and A2)
//===----------------------------------------------------------------------===//

/// Reference-VM (Sun JVM) cost of one trial-division test, in ns.
inline constexpr double SieveNsPerTest = 40.0;

//===----------------------------------------------------------------------===//
// SCOOPP runtime costs (Section 3)
//===----------------------------------------------------------------------===//

/// Local (intra-grain) proxy indirection per call: one virtual call plus a
/// grain-size bookkeeping update.
inline constexpr SimTime ProxyLocalCallCost = SimTime::nanoseconds(120);

/// Extra proxy work on a remote (inter-grain) call beyond the remoting
/// stack itself (grain bookkeeping, aggregation buffer management).  The
/// paper reports the ParC# penalty over raw remoting is "not noticeable".
inline constexpr SimTime ProxyRemoteCallCost = SimTime::microseconds(2);

/// Object-manager decision cost for placing a newly created parallel
/// object (load look-up + policy).
inline constexpr SimTime OmPlacementCost = SimTime::microseconds(8);

} // namespace parcs::calib

#endif // PARCS_VM_CALIBRATION_H
