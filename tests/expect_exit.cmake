# Runs a command and fails unless it exits with one exact code — stricter
# than WILL_FAIL, which accepts any failure, including a crash.
#
#   cmake -DEXPECT_EXIT=2 "-DCMD=prog|--flag|value" [-DEXPECT_ERR=regex]
#         [-DEXPECT_OUT=regex] -P expect_exit.cmake
#
# CMD separates its arguments with '|' so it survives add_test's list
# handling intact. EXPECT_ERR and EXPECT_OUT, when given, must also match the
# command's stderr and stdout: exit 1 is both a tool's usage code and some
# tools' check-failure code, so the message tells the two apart.
string(REPLACE "|" ";" command "${CMD}")
execute_process(COMMAND ${command} RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT "${rc}" STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "expected exit code ${EXPECT_EXIT}, got '${rc}'\n${err}")
endif()
if(DEFINED EXPECT_ERR AND NOT err MATCHES "${EXPECT_ERR}")
  message(FATAL_ERROR "stderr does not match '${EXPECT_ERR}'\n${err}")
endif()
if(DEFINED EXPECT_OUT AND NOT out MATCHES "${EXPECT_OUT}")
  message(FATAL_ERROR "stdout does not match '${EXPECT_OUT}'\n${out}")
endif()
