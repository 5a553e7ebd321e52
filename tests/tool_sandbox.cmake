# The acceptance scenario for sandboxed execution: a process-fatal fault
# (SIGSEGV) in Basic_DAXPY must not take down the driver — the sweep
# completes with the cell marked Crashed, forensics land in crashes.jsonl,
# and the exit code flags it (4). A --resume run without the fault re-runs
# only the crashed cell and succeeds, and rperf-report surfaces the crash
# history with exit 4.
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

execute_process(
  COMMAND "${RAJAPERF}" --kernels Basic_DAXPY,Stream_TRIAD
          --variants Base_Seq,Lambda_Seq --size-factor 0.01
          --isolate cell --faults segv@Basic_DAXPY
          --outdir "${WORKDIR}/out"
  OUTPUT_VARIABLE out1
  RESULT_VARIABLE rc1)
if(NOT rc1 EQUAL 4)
  message(FATAL_ERROR "segv run: want exit 4, got ${rc1}:\n${out1}")
endif()
if(NOT out1 MATCHES "Crashed Basic_DAXPY")
  message(FATAL_ERROR "segv run did not report the crash:\n${out1}")
endif()
if(NOT out1 MATCHES "crash forensics for")
  message(FATAL_ERROR "segv run printed no forensics hint:\n${out1}")
endif()
if(NOT EXISTS "${WORKDIR}/out/crashes.jsonl")
  message(FATAL_ERROR "no crashes.jsonl written")
endif()
# The surviving kernel still produced profiles.
file(GLOB profiles "${WORKDIR}/out/*.cali.json")
list(LENGTH profiles nprofiles)
if(nprofiles EQUAL 0)
  message(FATAL_ERROR "segv run produced no profiles for passing cells")
endif()

# Resume without the fault: only the crashed cells re-run; all pass.
execute_process(
  COMMAND "${RAJAPERF}" --kernels Basic_DAXPY,Stream_TRIAD
          --variants Base_Seq,Lambda_Seq --size-factor 0.01
          --isolate cell --resume --outdir "${WORKDIR}/out"
  OUTPUT_VARIABLE out2
  RESULT_VARIABLE rc2)
if(NOT rc2 EQUAL 0)
  message(FATAL_ERROR "resume run: want exit 0, got ${rc2}:\n${out2}")
endif()
if(NOT out2 MATCHES "restored from checkpoint")
  message(FATAL_ERROR "resume run restored nothing:\n${out2}")
endif()

# rperf-report keeps the crash history visible and flags it (exit 4).
execute_process(
  COMMAND "${REPORT}" "${WORKDIR}/out"
  OUTPUT_VARIABLE out3
  RESULT_VARIABLE rc3)
if(NOT rc3 EQUAL 4)
  message(FATAL_ERROR "report: want exit 4 for crash records, got ${rc3}:\n${out3}")
endif()
if(NOT out3 MATCHES "Crash summary")
  message(FATAL_ERROR "report printed no crash summary:\n${out3}")
endif()
if(NOT out3 MATCHES "SIGSEGV|exit ")
  message(FATAL_ERROR "crash summary lacks signal detail:\n${out3}")
endif()

# Kernel-granularity isolation from the CLI: one worker per kernel, retired
# after the kernel's last cell. Two kernels, no faults: every cell passes
# and the profile metadata records isolate=kernel with exactly two workers.
execute_process(
  COMMAND "${RAJAPERF}" --kernels Basic_DAXPY,Stream_TRIAD
          --variants Base_Seq,Lambda_Seq --size-factor 0.01
          --isolate kernel --outdir "${WORKDIR}/kernel"
  OUTPUT_VARIABLE out4
  RESULT_VARIABLE rc4)
if(NOT rc4 EQUAL 0)
  message(FATAL_ERROR "isolate-kernel run: want exit 0, got ${rc4}:\n${out4}")
endif()
file(GLOB kernel_profiles "${WORKDIR}/kernel/*.cali.json")
list(LENGTH kernel_profiles nkernel_profiles)
if(nkernel_profiles EQUAL 0)
  message(FATAL_ERROR "isolate-kernel run produced no profiles:\n${out4}")
endif()
list(GET kernel_profiles 0 kernel_profile)
file(READ "${kernel_profile}" kernel_meta)
if(NOT kernel_meta MATCHES "\"isolate\": \"kernel\"")
  message(FATAL_ERROR "profile metadata lacks isolate=kernel:\n${kernel_meta}")
endif()
if(NOT kernel_meta MATCHES "\"sandbox_children\": \"2\"")
  message(FATAL_ERROR "want sandbox_children=2 (one worker per kernel):\n${kernel_meta}")
endif()
