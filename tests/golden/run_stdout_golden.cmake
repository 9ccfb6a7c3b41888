# Runs a spec at a small fixed scale with the adaptive scheduler pinned and
# compares its stdout byte-for-byte against the committed golden — the
# oracle for the paper-figure specs.
#
#   cmake -DMPSIM=<cli> -DSPEC=<spec.toml> -DGOLDEN=<golden.stdout>
#         -DOUT=<scratch dir> -DSCALE=<x> -P run_stdout_golden.cmake
#
# Regenerate a golden only for an intended behaviour change:
#   MPSIM_SCHEDULER=adaptive mpsim run --scale=<x> <spec> > <golden>
foreach(var MPSIM SPEC GOLDEN OUT SCALE)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_stdout_golden.cmake: -D${var}= is required")
  endif()
endforeach()

file(MAKE_DIRECTORY ${OUT})
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env MPSIM_SCHEDULER=adaptive
          ${MPSIM} run --scale=${SCALE} --threads=2 ${SPEC}
  WORKING_DIRECTORY ${OUT}
  RESULT_VARIABLE run_rc
  OUTPUT_FILE ${OUT}/stdout.txt
  ERROR_QUIET)
if(NOT run_rc EQUAL 0)
  message(FATAL_ERROR "mpsim run failed (${run_rc}) for ${SPEC}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT}/stdout.txt ${GOLDEN}
  RESULT_VARIABLE cmp_rc)
if(NOT cmp_rc EQUAL 0)
  message(FATAL_ERROR
          "stdout drifted from golden: diff ${OUT}/stdout.txt ${GOLDEN}")
endif()
