# Guard against ambient per-thread state: every piece of mutable state in
# src/ lives in the object that reads it (a World's trace ring in its
# network, a shard's repository in its World), so Worlds stepped on one
# thread or on many never share any. Fails naming each file and line under
# src/ that declares thread_local. The one exception is the whitebox
# profiler (src/unites/profiler.cpp), whose thread-local current instance
# the benchmark still reaches through Profiler::current().
#   cmake -DSRC=<path to src/> -P no_thread_local.cmake
cmake_minimum_required(VERSION 3.16)
if(NOT IS_DIRECTORY "${SRC}")
  message(FATAL_ERROR "no source directory '${SRC}' (pass -DSRC=<path to src/>)")
endif()
file(GLOB_RECURSE files RELATIVE "${SRC}" "${SRC}/*.cpp" "${SRC}/*.hpp")
set(hits "")
foreach(rel IN LISTS files)
  if(rel STREQUAL "unites/profiler.cpp")
    continue()
  endif()
  file(READ "${SRC}/${rel}" text)
  set(from 0)
  while(TRUE)
    string(SUBSTRING "${text}" ${from} -1 rest)
    string(FIND "${rest}" "thread_local" at)
    if(at EQUAL -1)
      break()
    endif()
    math(EXPR pos "${from} + ${at}")
    math(EXPR from "${pos} + 12")
    string(SUBSTRING "${text}" 0 ${pos} before)
    # A mention inside a // comment declares nothing.
    string(FIND "${before}" "\n" line_start REVERSE)
    math(EXPR line_start "${line_start} + 1")
    string(SUBSTRING "${before}" ${line_start} -1 lead)
    string(FIND "${lead}" "//" comment)
    if(NOT comment EQUAL -1)
      continue()
    endif()
    string(REGEX MATCHALL "\n" newlines "${before}")
    list(LENGTH newlines line)
    math(EXPR line "${line} + 1")
    string(APPEND hits "\n  src/${rel}:${line}")
  endwhile()
endforeach()
if(NOT hits STREQUAL "")
  message(FATAL_ERROR "thread_local outside src/unites/profiler.cpp:${hits}\n"
                      "Keep the state in the World (or the object) that owns it.")
endif()
