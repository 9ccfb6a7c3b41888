# `mpsim run` must report trace-ring loss: a traced run whose ring is far
# smaller than its record count prints "<run>: N records, M overwritten"
# with M > 0 on stderr.
#
#   cmake -DMPSIM=<cli> -DSPEC=<spec.toml> -DOUT=<scratch dir>
#         -P check_trace_loss.cmake
foreach(var MPSIM SPEC OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_trace_loss.cmake: -D${var}= is required")
  endif()
endforeach()

file(MAKE_DIRECTORY ${OUT})
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env MPSIM_TRACE_CAPACITY=64
          ${MPSIM} run --scale=0.01 --trace=csv --trace-dir=${OUT} ${SPEC}
  WORKING_DIRECTORY ${OUT}
  RESULT_VARIABLE run_rc
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(NOT run_rc EQUAL 0)
  message(FATAL_ERROR "mpsim run failed (${run_rc}) for ${SPEC}:\n${err}")
endif()
if(NOT err MATCHES ": [0-9]+ records, [1-9][0-9]* overwritten")
  message(FATAL_ERROR "no trace-ring loss reported on stderr:\n${err}")
endif()
